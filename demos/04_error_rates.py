"""Error rates and error-type analysis.

Aligns hypothesis transcripts against references at word, character, and
phone granularity, and ranks the substitution confusions, the way one would
when comparing recognition output on natural vs. distorted speech.

Run:  python3 demos/04_error_rates.py
"""

from ltrkit import align, corpus_rate, corpus_report, tokenize, top_confusions

print("Word-level alignment keeps full error-type counts:")
ref = tokenize("the cat sat on the mat", "word")
hyp = tokenize("the cat sat on that mat mat", "word")
report = align(ref, hyp)
print(f"  ref {ref}")
print(f"  hyp {hyp}")
print(f"  S={report.substitutions} I={report.insertions} D={report.deletions} H={report.hits}  rate={report.rate:.3f}")

print("\nCharacter units suit languages written without spaces:")
report = align(tokenize("你好 吗", "char"), tokenize("你好 吧", "char"))
print(f"  S={report.substitutions} I={report.insertions} D={report.deletions}  rate={report.rate:.3f}")

print("\nPhone units are just whitespace-separated labels:")
ref_phones = tokenize("sil dh ax m ae n sil", "phone")
hyp_phones = tokenize("sil dh ax n ae n sil", "phone")
report = align(ref_phones, hyp_phones)
print(f"  confusions: {dict(report.confusions)}  (a nasal substitution)")

print("\nCorpus rates pool errors over pooled reference length:")
pairs = [
    (tokenize("good morning", "word"), tokenize("good morning", "word")),
    (tokenize("see you at ten", "word"), tokenize("see you at ten ten", "word")),
    (tokenize("thanks a lot", "word"), tokenize("thanks lot", "word")),
]
print(f"  corpus rate = {corpus_rate(pairs):.4f} over {sum(len(r) for r, _ in pairs)} reference words")
pooled = corpus_report(pairs)
print(f"  pooled S={pooled.substitutions} I={pooled.insertions} D={pooled.deletions} H={pooled.hits}"
      f"  ref_len={pooled.ref_len}")

print("\nRanked substitution table across many utterances:")
reports = [
    align(tokenize(r, "phone"), tokenize(h, "phone"))
    for r, h in [
        ("m ae n", "n ae n"),
        ("m ao m", "n ao m"),
        ("w eh l", "l eh l"),
        ("m ih t", "n ih t"),
        ("w ay d", "l ay d"),
        ("m ay", "n ay"),
    ]
]
for pair, count in top_confusions(reports, 5):
    print(f"  {pair[0]} -> {pair[1]}  x{count}")

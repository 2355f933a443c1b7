package analytics

import (
	"unicode"
	"unicode/utf8"
)

// stopwords are tokens carrying no diagnostic signal in Cray/Lustre logs.
var stopwords = map[string]bool{
	"the": true, "a": true, "an": true, "of": true, "on": true, "in": true,
	"to": true, "with": true, "by": true, "for": true, "and": true,
	"is": true, "at": true, "from": true, "this": true, "was": true,
	"error": true, "failed": true, "operation": true, // present in ~every line
}

// EachToken calls yield for every analysis token of text, in order:
// lowercased runs of letters/digits (so hexadecimal codes and component
// ids like ost0012 survive), minus stopwords and single characters. Runs
// that are already lowercase — the overwhelming case in log text — are
// yielded as zero-copy substrings; only tokens that actually need
// case-folding allocate. Callers retaining a token beyond the scan (a
// map key) must clone it. This is the word-count/TF-IDF hot path.
func EachToken(text string, yield func(tok string)) {
	start := -1   // byte offset of the current run, -1 = between runs
	clean := true // current run needs no case folding
	var scratch []byte
	flush := func(end int) {
		if start < 0 {
			return
		}
		tok := text[start:end]
		if !clean {
			scratch = scratch[:0]
			for _, r := range tok {
				scratch = utf8.AppendRune(scratch, unicode.ToLower(r))
			}
			tok = string(scratch)
		}
		if len(tok) >= 2 && !stopwords[tok] {
			yield(tok)
		}
	}
	for i, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start, clean = i, true
			}
			if unicode.ToLower(r) != r {
				clean = false
			}
			continue
		}
		flush(i)
		start = -1
	}
	flush(len(text))
}

// TermScore is one term with its aggregate TF-IDF weight.
type TermScore struct {
	Term  string
	Score float64
}

// TopTerms returns the k highest-scoring terms of a TF-IDF result.
func TopTerms(scores []TermScore, k int) []TermScore {
	if k > len(scores) {
		k = len(scores)
	}
	return scores[:k]
}

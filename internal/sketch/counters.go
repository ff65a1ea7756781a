package sketch

import "mucongest/internal/stream"

// counters is the state of the linear sketches (CountMin, AMS,
// CR-Precis): the stream length n and a flat counter array, serialized
// as [n, counters...]. Linearity makes every merge word-wise addition,
// so each sketch embeds counters and adds only Insert and its queries.
type counters struct {
	n   int64
	ctr []int64
}

// SizeWords returns the fixed serialized size.
func (s *counters) SizeWords() int { return 1 + len(s.ctr) }

// Count returns the processed stream length.
func (s *counters) Count() int64 { return s.n }

// Words serializes: [n, counters...].
func (s *counters) Words() []int64 {
	w := make([]int64, s.SizeWords())
	w[0] = s.n
	copy(w[1:], s.ctr)
	return w
}

// MergeFrom adds another sketch word-wise.
func (s *counters) MergeFrom(words []int64) {
	for i, w := range words {
		s.ComposeWord(i, w)
	}
}

// ComposeWord folds one serialized word into the sketch (Definition
// 3.3's streaming merge): counters and the count header are additive.
func (s *counters) ComposeWord(i int, w int64) {
	if i == 0 {
		s.n += w
		return
	}
	s.ctr[i-1] += w
}

// fromWords loads a serialization into s, an empty linear sketch of
// the same Kind: added word-wise to zero counters, it is restored.
func fromWords(s stream.Summary, words []int64) stream.Summary {
	s.(stream.Composable).MergeFrom(words)
	return s
}

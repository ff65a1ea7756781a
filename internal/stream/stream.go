// Package stream defines the streaming-summary abstractions of Section 3
// of the paper: bounded-size summaries produced by a streaming algorithm
// (A2), and the three mergeability notions of Agarwal et al. adapted in
// Definitions 3.1–3.3 — one-way mergeable, fully mergeable, and
// composable. Summaries serialize to a fixed number of words so they can
// be shipped over CONGEST edges at one word per round.
package stream

// Summary is the state of a streaming algorithm after processing a
// stream: Definition 3.1's S(I). Insert plays the role of algorithm A2
// processing one element.
type Summary interface {
	// Insert processes one stream element.
	Insert(x int64)
	// Words serializes the summary into exactly SizeWords() words.
	Words() []int64
	// SizeWords returns the fixed serialized size M of the summary.
	SizeWords() int
	// Count returns the number of elements the summary has absorbed.
	Count() int64
}

// OneWayMergeable is Definition 3.1: A1 can absorb an A2-produced
// summary into a main summary. MergeFrom must be called on the main
// summary with the words of an A2-produced summary.
type OneWayMergeable interface {
	Summary
	// MergeFrom absorbs a serialized summary (A1's merge step).
	MergeFrom(words []int64)
}

// FullyMergeable is Definition 3.2: any two summaries, however
// produced, merge into one summary of the same size.
type FullyMergeable interface {
	OneWayMergeable
}

// Composable is Definition 3.3: ℓ summaries can be merged in a
// streaming fashion using only M memory, by folding the i-th words of
// all inputs for i = 1..M. Linear sketches compose by word-wise
// addition; ComposeWord(i, w) folds one incoming word into the state.
type Composable interface {
	FullyMergeable
	// ComposeWord folds word index i of another summary into this one.
	// After ComposeWord has been called for every index of every input,
	// the state equals the merged summary.
	ComposeWord(i int, w int64)
}

// Kind constructs empty and deserialized summaries of one configuration
// (one ε, one seed set, ...). All summaries of a Kind have equal
// SizeWords, so mergers know the wire format.
type Kind interface {
	// New returns an empty summary.
	New() Summary
	// FromWords reconstructs a summary from its serialization.
	FromWords(words []int64) Summary
	// M returns the serialized size in words of this kind's summaries.
	M() int
}

// InsertAll feeds a whole slice into s.
func InsertAll(s Summary, xs []int64) {
	for _, x := range xs {
		s.Insert(x)
	}
}

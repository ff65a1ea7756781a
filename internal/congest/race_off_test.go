//go:build !race

package congest_test

// raceEnabled reports whether the race detector is compiled in. The
// allocation pin skips under -race, where instrumentation allocates.
const raceEnabled = false

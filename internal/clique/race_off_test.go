//go:build !race

package clique

// raceEnabled reports whether the race detector is compiled in. The
// allocation pin skips under -race, where instrumentation allocates.
const raceEnabled = false

//go:build simdebug

package sim

// debugPoison is enabled by the simdebug build tag: retired inbox
// arenas are overwritten with sentinel values so a program that
// retains a Tick slice past its next Tick reads obviously-invalid
// messages instead of silently stale or clobbered data.
const debugPoison = true

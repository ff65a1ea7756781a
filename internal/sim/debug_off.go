//go:build !simdebug

package sim

// debugPoison enables poisoning of retired inbox arenas (see
// poisonInbox). Off in normal builds; the guard compiles away.
const debugPoison = false

// Package mucongest reproduces "Bounded Memory in Distributed
// Networks" (Ben Basat, Censor-Hillel, Chang, Han, Leitersdorf,
// Schwartzman — SPAA 2025): the μ-CONGEST model, bounded-memory clique
// listing, and the streaming-simulation toolbox. README.md documents
// the build and the muexp/mugraph commands; DESIGN.md is the
// architecture tour (engine round loop, determinism, record and
// topology layers); EXPERIMENTS.md maps experiments E1–E13 to the
// paper's theorems with exact invocations and the record schema. The
// implementation lives under internal/ and is exercised by cmd/muexp,
// the examples/ programs, and the benchmarks in bench_test.go.
package mucongest

package clique

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"mucongest/internal/graph"
	"mucongest/internal/sim"
)

func TestMuCongestTrianglesComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp-dense", graph.Gnp(28, 0.5, rng)},
		{"gnp-sparse", graph.Gnp(40, 0.15, rng)},
		{"cliques", graph.CycleOfCliques(4, 7)},
		{"barbell", graph.BarbellExpanders(14, 0.6, rng)},
	} {
		want := ListAll(tc.g, 3)
		got, res, err := RunMuCongestTriangles(MuTriangleConfig{
			G: tc.g, Mu: int64(2 * tc.g.N()),
		}, sim.WithSeed(7))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !SameSet(got, want) {
			t.Fatalf("%s: listed %d triangles, want %d", tc.name, len(got), len(want))
		}
		if res.Rounds <= 0 && tc.g.M() > 0 {
			t.Fatalf("%s: no rounds recorded", tc.name)
		}
	}
}

func TestMuCongestTrianglesRoundsDropWithMu(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.Gnp(80, 0.5, rng)
	rounds := func(mu int64) int {
		_, res, err := RunMuCongestTriangles(MuTriangleConfig{G: g, Mu: mu}, sim.WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds
	}
	// Stay within the theorem's μ ≤ n^(4/3) range, where the √(m̃/μ)
	// bucket term governs.
	small := rounds(int64(g.N()))
	big := rounds(int64(g.N()) * 4)
	if big >= small {
		t.Fatalf("rounds should drop as μ grows: μ=n→%d, μ=4n→%d", small, big)
	}
}

func TestMuCongestTrianglesAlphaTradeoff(t *testing.T) {
	// Lemma A.2: α saves memory but costs rounds (×α² on routed loads).
	rng := rand.New(rand.NewSource(3))
	g := graph.Gnp(36, 0.5, rng)
	run := func(alpha int) *sim.Result {
		_, res, err := RunMuCongestTriangles(MuTriangleConfig{
			G: g, Mu: int64(g.N()), Alpha: alpha,
		}, sim.WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := run(1)
	r3 := run(3)
	if r3.Rounds <= r1.Rounds {
		t.Fatalf("α=3 should cost more rounds: %d vs %d", r3.Rounds, r1.Rounds)
	}
}

func TestMuCongestEmptyAndTriangleFree(t *testing.T) {
	// Triangle-free graph: must terminate with zero triangles.
	g := graph.Cycle(12)
	got, _, err := RunMuCongestTriangles(MuTriangleConfig{G: g, Mu: 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("cycle has no triangles, listed %v", got)
	}
}

func TestMuCongestDeterministicAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.Gnp(24, 0.4, rng)
	a, resA, err := RunMuCongestTriangles(MuTriangleConfig{G: g, Mu: 48}, sim.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	b, resB, err := RunMuCongestTriangles(MuTriangleConfig{G: g, Mu: 48}, sim.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if !SameSet(a, b) || resA.Rounds != resB.Rounds {
		t.Fatalf("non-deterministic: %d/%d triangles, %d/%d rounds",
			len(a), len(b), resA.Rounds, resB.Rounds)
	}
}

// TestMuCongestTrianglesPinned pins the Theorem 1.2 listing's schedule
// on G(48, 1/2) at seeds 1–3, μ ∈ {Δ, 4Δ} and α ∈ {1, 2}: rounds,
// messages and a digest of every node's peak words. A change to the
// listing plan or the batch lister that moves a bucket draw, a packet,
// a charge or a round moves one of these. The triangles must equal
// ListAll's.
func TestMuCongestTrianglesPinned(t *testing.T) {
	for _, pin := range []struct {
		seed            int64
		muPerDelta      int64
		alpha           int
		rounds          int
		messages        int64
		peakWordsDigest uint64
	}{
		{1, 1, 1, 2356, 1288, 0x44badc8eae37023c},
		{1, 1, 2, 8728, 1288, 0x5eab0f0927113ef3},
		{1, 4, 1, 2392, 1288, 0xa11c6e00aea00613},
		{1, 4, 2, 8872, 1288, 0xf53caca87eaf22cd},
		{2, 1, 1, 900, 1158, 0x8748341bd65bde25},
		{2, 1, 2, 3276, 1158, 0xe721278335b6f45c},
		{2, 4, 1, 1006, 1158, 0x9ef0934e1fc78cd},
		{2, 4, 2, 3706, 1158, 0x736150e8dce75aba},
		{3, 1, 1, 972, 1108, 0xbee2cdd548f36c2b},
		{3, 1, 2, 3564, 1108, 0x9269b3eb79f03908},
		{3, 4, 1, 862, 1108, 0xa85442befe13b66e},
		{3, 4, 2, 3130, 1108, 0xfbecf543c17586d1},
	} {
		g := graph.Gnp(48, 0.5, rand.New(rand.NewSource(pin.seed)))
		mu := pin.muPerDelta * int64(g.MaxDegree())
		got, res, err := RunMuCongestTriangles(MuTriangleConfig{G: g, Mu: mu, Alpha: pin.alpha}, sim.WithSeed(pin.seed))
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		fmt.Fprint(h, res.PeakWords)
		if res.Rounds != pin.rounds || res.Messages != pin.messages || h.Sum64() != pin.peakWordsDigest {
			t.Errorf("seed %d μ=%d α=%d: rounds %d, messages %d, peak-words digest %#x; want %d, %d, %#x",
				pin.seed, mu, pin.alpha, res.Rounds, res.Messages, h.Sum64(), pin.rounds, pin.messages, pin.peakWordsDigest)
		}
		if want := ListAll(g, 3); !slices.EqualFunc(got, want, slices.Equal) {
			t.Errorf("seed %d μ=%d α=%d: listed %d triangles, want ListAll's %d", pin.seed, mu, pin.alpha, len(got), len(want))
		}
	}
}

package matching

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPerfectMatchingExists(t *testing.T) {
	adj := [][]int{{0, 1}, {0}, {1, 2}}
	m, err := PerfectMatching(3, adj)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i, j := range m {
		if seen[j] {
			t.Fatalf("right vertex %d matched twice", j)
		}
		seen[j] = true
		found := false
		for _, a := range adj[i] {
			if a == j {
				found = true
			}
		}
		if !found {
			t.Fatalf("match %d-%d not an edge", i, j)
		}
	}
}

func TestPerfectMatchingImpossible(t *testing.T) {
	// Two left vertices share a single right vertex.
	if _, err := PerfectMatching(2, [][]int{{0}, {0}}); err == nil {
		t.Fatal("expected failure")
	}
}

// Permutation is one term of a Birkhoff decomposition: the permutation
// Perm (Perm[j] = row i such that P[i][j] = 1) repeated Count times.
type Permutation struct {
	Perm  []int
	Count int64
}

// decompose collects Birkhoff's terms.
func decompose(B [][]int64) ([]Permutation, error) {
	terms, err := Birkhoff(B)
	if err != nil {
		return nil, err
	}
	var out []Permutation
	for perm, count := range terms {
		out = append(out, Permutation{perm, count})
	}
	return out, nil
}

// Reconstruct rebuilds the matrix Σ Count·P from a decomposition.
func Reconstruct(n int, perms []Permutation) [][]int64 {
	B := make([][]int64, n)
	for i := range B {
		B[i] = make([]int64, n)
	}
	for _, p := range perms {
		for j, i := range p.Perm {
			B[i][j] += p.Count
		}
	}
	return B
}

// randomDoublyBalanced builds a random n×n non-negative matrix with all
// row and column sums equal to s, by summing s random permutation
// matrices.
func randomDoublyBalanced(n int, s int64, rng *rand.Rand) [][]int64 {
	B := make([][]int64, n)
	for i := range B {
		B[i] = make([]int64, n)
	}
	perm := make([]int, n)
	for k := int64(0); k < s; k++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for j, i := range perm {
			B[i][j]++
		}
	}
	return B
}

func TestBirkhoffReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		n int
		s int64
	}{{3, 5}, {5, 12}, {8, 30}, {4, 1}} {
		B := randomDoublyBalanced(tc.n, tc.s, rng)
		perms, err := decompose(B)
		if err != nil {
			t.Fatal(err)
		}
		var tot int64
		for _, p := range perms {
			tot += p.Count
		}
		if tot != tc.s {
			t.Fatalf("counts sum %d want %d", tot, tc.s)
		}
		R := Reconstruct(tc.n, perms)
		for i := range B {
			for j := range B[i] {
				if R[i][j] != B[i][j] {
					t.Fatalf("reconstruction differs at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestBirkhoffRejectsUnbalanced(t *testing.T) {
	if _, err := Birkhoff([][]int64{{1, 0}, {0, 2}}); err == nil {
		t.Fatal("unbalanced matrix accepted")
	}
	if _, err := Birkhoff([][]int64{{1, 1}, {2, 0}}); err == nil {
		t.Fatal("column-unbalanced matrix accepted")
	}
	if _, err := Birkhoff([][]int64{{-1, 1}, {1, -1}}); err == nil {
		t.Fatal("negative matrix accepted")
	}
}

func TestBirkhoffProperty(t *testing.T) {
	f := func(seed int64, nRaw, sRaw uint8) bool {
		n := int(nRaw%6) + 2
		s := int64(sRaw%20) + 1
		rng := rand.New(rand.NewSource(seed))
		B := randomDoublyBalanced(n, s, rng)
		perms, err := decompose(B)
		if err != nil {
			return false
		}
		R := Reconstruct(n, perms)
		for i := range B {
			for j := range B[i] {
				if R[i][j] != B[i][j] {
					return false
				}
			}
		}
		// Each term must be a genuine permutation.
		for _, p := range perms {
			seen := map[int]bool{}
			for _, i := range p.Perm {
				if seen[i] {
					return false
				}
				seen[i] = true
			}
			if p.Count < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBirkhoffIdentity(t *testing.T) {
	B := [][]int64{{7, 0}, {0, 7}}
	perms, err := decompose(B)
	if err != nil {
		t.Fatal(err)
	}
	if len(perms) != 1 || perms[0].Count != 7 {
		t.Fatalf("identity should decompose into one term: %+v", perms)
	}
}

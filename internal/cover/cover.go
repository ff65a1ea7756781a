// Package cover implements (a,b,c) subset covers (Definition 2.11 of
// the paper): sequences of b-sized subsets of {0..a-1} such that every
// c-element subset is contained in some member. The construction
// follows the paper: partition the a elements into groups of size
// ⌊b/c⌋ and take the union of every c-multiset of groups, giving
// z = O((a·c/b)^c) sets. A cover is held implicitly, by its grouping:
// set i is the union of the groups in the i-th c-multiset of group
// indices, in the order Next walks them from the all-zero tuple.
package cover

// Cover is an (a,b,c) subset cover: the elements 0..A-1 in Groups
// groups of GroupSize consecutive elements, the last possibly short.
// Each set has at most c·GroupSize ≤ b elements, and every c-element
// subset of {0..A-1} is contained in at least one set.
type Cover struct {
	A, GroupSize, Groups int
}

// New returns the (a,b,c) subset cover. Requires b ≥ c ≥ 1 and a ≥ 1.
func New(a, b, c int) Cover {
	if c < 1 || b < c || a < 1 {
		panic("cover: requires a ≥ 1 and b ≥ c ≥ 1")
	}
	sz := b / c
	return Cover{A: a, GroupSize: sz, Groups: (a + sz - 1) / sz}
}

// Group returns the elements [lo, hi) of group j.
func (cv Cover) Group(j int) (lo, hi int) {
	lo = j * cv.GroupSize
	return lo, min(lo+cv.GroupSize, cv.A)
}

// AppendSet appends to dst the set of the multiset ms, a non-decreasing
// tuple of group indices: its distinct groups' elements, ascending.
func (cv Cover) AppendSet(dst, ms []int) []int {
	for i, j := range ms {
		if i > 0 && j == ms[i-1] {
			continue // the same group picked twice adds nothing
		}
		lo, hi := cv.Group(j)
		for e := lo; e < hi; e++ {
			dst = append(dst, e)
		}
	}
	return dst
}

// Next advances ms, a non-decreasing tuple over [0, g), to its
// lexicographic successor and reports whether there was one. Started
// from the all-zero tuple it visits every c-multiset of [0, g) once,
// c = len(ms), and it returns false on the last, leaving ms unchanged.
func Next(ms []int, g int) bool {
	i := len(ms) - 1
	for i >= 0 && ms[i] == g-1 {
		i--
	}
	if i < 0 {
		return false
	}
	ms[i]++
	for j := i + 1; j < len(ms); j++ {
		ms[j] = ms[i]
	}
	return true
}

// Size returns the number of sets z = C(g+c-1, c) of New(a,b,c), where
// g = ⌈a/⌊b/c⌋⌉ is its group count.
func Size(a, b, c int) int { return Multisets(New(a, b, c).Groups, c) }

// Multisets returns C(g+c-1, c), the number of c-multisets of [0, g).
func Multisets(g, c int) int {
	num := 1
	for i := 0; i < c; i++ {
		num = num * (g + i) / (i + 1)
	}
	return num
}

package matching

import "fmt"

// MinWeightPerfectMatching computes a minimum-weight perfect matching on a
// graph with n vertices (n even) by running maximum-weight
// maximum-cardinality matching on negated weights. It returns mate[v] for
// every vertex, or an error when no perfect matching exists.
func MinWeightPerfectMatching(n int, edges []Edge) ([]int, error) {
	if n%2 != 0 {
		return nil, fmt.Errorf("matching: perfect matching needs an even vertex count, got %d", n)
	}
	neg := make([]Edge, len(edges))
	for i, e := range edges {
		neg[i] = Edge{U: e.U, V: e.V, W: -e.W}
	}
	mate := MaxWeightMatching(n, neg, true)
	for v, m := range mate {
		if m == noNode {
			return nil, fmt.Errorf("matching: vertex %d unmatched; graph has no perfect matching", v)
		}
	}
	return mate, nil
}

// Scratch holds reusable matcher state for callers that solve many small
// matchings in a loop — the decoder's per-shot blossom runs. The zero value
// is ready to use. A Scratch is not safe for concurrent use; give each
// goroutine its own.
type Scratch struct {
	mate []int
	m    matcher
}

// MaxWeightMatching is the scratch-reusing variant of the package function:
// identical results, but every internal buffer — including the returned
// mate slice — is owned by the Scratch and overwritten by the next call.
// Callers must consume (or copy) the result before reusing s. Once the
// buffers have grown to the largest graph seen, a call does not allocate.
func (s *Scratch) MaxWeightMatching(n int, edges []Edge, maxCardinality bool) []int {
	s.mate = resizeInts(s.mate, n)
	fillInts(s.mate, noNode)
	if len(edges) == 0 || n == 0 {
		return s.mate
	}
	s.m.reset(n, edges, maxCardinality)
	s.m.run()
	// Convert endpoint-based mates to vertex-based.
	for v := 0; v < n; v++ {
		if s.m.mate[v] >= 0 {
			s.mate[v] = s.m.endpoint[s.m.mate[v]]
		}
	}
	return s.mate
}

// MatchingWeight sums the weights of the matched edges under mate, counting
// each pair once. Edges absent from the edge list contribute nothing; use it
// with matchings produced from the same edge list.
func MatchingWeight(edges []Edge, mate []int) int64 {
	var total int64
	for _, e := range edges {
		if mate[e.U] == e.V {
			total += e.W
		}
	}
	return total
}

// Pairs converts a mate array into a deduplicated list of matched pairs
// (u < v).
func Pairs(mate []int) [][2]int {
	var out [][2]int
	for u, v := range mate {
		if v > u {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

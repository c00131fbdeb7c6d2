package serve

// mergeInto appends to out (which must be empty) the ascending merge of the
// per-leg ascending id lists in heads, keeping at most limit ids (0 = all);
// the cut is applied as the merge runs, so nothing past it is ever copied.
// heads holds non-empty lists only and is consumed. Shards own disjoint id
// spaces, so there is nothing to de-duplicate; the merge is a deterministic
// function of its inputs — the same per-leg partial results always produce
// the same response, no matter which leg answered first or on which
// goroutine.
//
// Prefix-correctness composes: each input is a subset of its shard's true
// answer, the union of subsets is a subset of the union, and the limit cut
// keeps the limit smallest ids of that union — still a subset of the true
// answer.
func mergeInto(out []int64, heads [][]int64, limit int) []int64 {
	for len(heads) > 0 && (limit <= 0 || len(out) < limit) {
		if len(heads) == 1 {
			rest := heads[0]
			if limit > 0 && len(rest) > limit-len(out) {
				rest = rest[:limit-len(out)]
			}
			return append(out, rest...)
		}
		min := 0
		for i := 1; i < len(heads); i++ {
			if heads[i][0] < heads[min][0] {
				min = i
			}
		}
		out = append(out, heads[min][0])
		if heads[min] = heads[min][1:]; len(heads[min]) == 0 {
			heads[min] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
	}
	return out
}

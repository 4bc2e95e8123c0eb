package hotalloc

// Index is a hot-path root that stays within the contract: index
// arithmetic, slice reads and writes, calls to clean helpers, and the
// map-index string conversion idiom.
//
//nslint:hotpath
func Index(xs []int, out []int, tab *table, key []byte) int {
	n := 0
	for i := range xs {
		out[i&(len(out)-1)] = xs[i]
		n += lookup(tab, key)
	}
	return n
}

// lookup is in the closure via Index and is clean: a map read does not
// allocate, string(key) as an immediate map index is free, and so is
// one compared in place.
func lookup(tab *table, key []byte) int {
	if string(key) != tab.last {
		return 0
	}
	return tab.counts[string(key)]
}

// Sum is a root that hands concrete non-pointer values to a generic
// helper: a type parameter is instantiated, not boxed, even though its
// constraint is an interface type.
//
//nslint:hotpath
func Sum(key []byte, name string) int {
	return length(key) + length(name)
}

func length[K string | []byte](k K) int { return len(k) }

// Flush is called from Index's package but carries a coldpath boundary:
// its per-window allocations are amortized and deliberately outside the
// static contract.
//
//nslint:coldpath corpus: per-window flush, allocation amortized across the window
func Flush(tab *table) []string {
	keys := make([]string, 0, len(tab.counts))
	for k := range tab.counts {
		keys = append(keys, k)
	}
	return keys
}

// Cut is a root that calls the coldpath boundary: the closure stops at
// Flush, so its allocations are not findings.
//
//nslint:hotpath
func Cut(tab *table) int {
	return len(Flush(tab))
}

// setup is not in any hotpath closure: it may allocate freely.
func setup(n int) *table {
	return &table{counts: make(map[string]int, n)}
}

package datagen

import (
	"math/rand"
	"strings"
)

// CorrelatedItem is one row of the Figure-6-style workload the root
// tests and the bench/ module share: a table clustered on Cat with the
// soft functional dependency Cat -> Subcat, and a wide Desc payload so
// sweeps stay page- rather than CPU-bound.
type CorrelatedItem struct {
	Cat, Subcat, Price int64
	Desc               string
}

// Domain constants of the correlated-items workload.
const (
	CorrelatedCats    = 4000
	CorrelatedSubcats = CorrelatedCats / 8
)

// CorrelatedItems generates the workload deterministically.
func CorrelatedItems(rows int) []CorrelatedItem {
	rng := rand.New(rand.NewSource(7))
	filler := strings.Repeat("x", 150) // realistic wide rows (item titles etc.)
	out := make([]CorrelatedItem, rows)
	for i := range out {
		c := int64(rng.Intn(CorrelatedCats))
		out[i] = CorrelatedItem{
			Cat:    c,
			Subcat: c / 8, // soft FD: subcat determined by cat
			Price:  int64(rng.Intn(10000)),
			Desc:   filler,
		}
	}
	return out
}

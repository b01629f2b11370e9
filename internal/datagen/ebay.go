// Package datagen synthesizes the paper's three evaluation datasets with
// the correlation structure each experiment exercises. All generators are
// deterministic given a seed and scale freely: tests run thousands of
// rows, benchmarks can run millions.
//
// Substitutions relative to the paper (see ARCHITECTURE.md §7): the eBay category
// feed, TPC-H dbgen output and the SDSS sky catalog are reproduced as
// synthetic equivalents preserving the attribute correlations (soft FDs)
// that the experiments measure.
package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/table"
	"repro/internal/value"
)

// EBayConfig scales the hierarchical eBay items dataset. The paper uses
// 24,000 categories in a 6-level hierarchy and 43M rows (3.5 GB); the
// defaults shrink both while keeping items-per-category in the paper's
// 500–3000 band shape.
type EBayConfig struct {
	Categories     int // default 600
	ItemsPerCatMin int // default 50
	ItemsPerCatMax int // default 300
	Seed           int64
}

func (c *EBayConfig) defaults() {
	if c.Categories <= 0 {
		c.Categories = 600
	}
	if c.ItemsPerCatMin <= 0 {
		c.ItemsPerCatMin = 50
	}
	if c.ItemsPerCatMax < c.ItemsPerCatMin {
		c.ItemsPerCatMax = c.ItemsPerCatMin * 6
	}
}

// eBay column positions.
const (
	EBayCATID = iota
	EBayCAT1
	EBayCAT2
	EBayCAT3
	EBayCAT4
	EBayCAT5
	EBayCAT6
	EBayItemID
	EBayPrice
)

// EBaySchema returns ITEMS(CATID, CAT1..CAT6, ItemID, Price).
func EBaySchema() table.Schema {
	return table.NewSchema(
		table.Column{Name: "catid", Kind: value.Int},
		table.Column{Name: "cat1", Kind: value.String},
		table.Column{Name: "cat2", Kind: value.String},
		table.Column{Name: "cat3", Kind: value.String},
		table.Column{Name: "cat4", Kind: value.String},
		table.Column{Name: "cat5", Kind: value.String},
		table.Column{Name: "cat6", Kind: value.String},
		table.Column{Name: "itemid", Kind: value.Int},
		table.Column{Name: "price", Kind: value.Float},
	)
}

// catPath derives the 6-level category path of a category ID from a fixed
// fanout pyramid, so sub-category names are functions of CATID exactly as
// in a real hierarchy (CATID -> CAT1..CAT6 are hard FDs; CAT5 -> CATID is
// a strong soft FD because level-5 names are nearly unique).
var ebayFanout = [6]int{12, 5, 5, 4, 3, 2}

// genericLeafNames are category names like eBay's "Others" that appear
// under many different parents. They give some CAT5/CAT6 values a much
// higher c_per_u than specific names — the spread Experiment 4 (Figure
// 10) relies on, where CAT5 values range from c_per_u=4 to 145.
var genericLeafNames = []string{"Others", "Accessories", "Parts", "Vintage", "Mixed Lots"}

func catPath(catID int) [6]string {
	var path [6]string
	// Mixed-radix decomposition of the category id over the fanouts.
	digits := make([]int, 6)
	rem := catID
	for l := 5; l >= 0; l-- {
		digits[l] = rem % ebayFanout[l]
		rem /= ebayFanout[l]
	}
	for l := 0; l < 6; l++ {
		path[l] = fmt.Sprintf("L%d-%d-%d", l+1, digits[l], catID/levelGroup(l))
	}
	// Roughly a third of categories use a generic level-5/6 leaf name
	// shared across unrelated parents; a further tier uses "regional"
	// names shared by a handful of parents, giving CAT5 the wide
	// c_per_u spread of Figure 10 (the paper measures 4..145).
	switch {
	case catID%3 == 0:
		path[4] = genericLeafNames[(catID/3)%len(genericLeafNames)]
	case catID%7 == 1:
		path[4] = fmt.Sprintf("Regional-%d", (catID/7)%24)
	}
	if catID%5 == 0 {
		path[5] = genericLeafNames[(catID/5)%len(genericLeafNames)]
	}
	return path
}

// levelGroup makes level names shared among sibling categories: level l's
// name is common to the group of categories below the same ancestor.
func levelGroup(l int) int {
	g := 1
	for i := l + 1; i < 6; i++ {
		g *= ebayFanout[i]
	}
	return g
}

// EBayItems generates the items table rows. Prices follow the paper's
// recipe: each category gets a median drawn uniformly from [0, 1M] and
// items are Gaussian around it with sigma $100, making Price a strong
// (but soft) predictor of CATID.
func EBayItems(cfg EBayConfig) []value.Row {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var rows []value.Row
	itemID := int64(0)
	for cat := 0; cat < cfg.Categories; cat++ {
		path := catPath(cat)
		median := rng.Float64() * 1_000_000
		count := cfg.ItemsPerCatMin
		if cfg.ItemsPerCatMax > cfg.ItemsPerCatMin {
			count += rng.Intn(cfg.ItemsPerCatMax - cfg.ItemsPerCatMin)
		}
		for i := 0; i < count; i++ {
			price := median + rng.NormFloat64()*100
			if price < 0 {
				price = 0
			}
			rows = append(rows, value.Row{
				value.NewInt(int64(cat)),
				value.NewString(path[0]),
				value.NewString(path[1]),
				value.NewString(path[2]),
				value.NewString(path[3]),
				value.NewString(path[4]),
				value.NewString(path[5]),
				value.NewInt(itemID),
				value.NewFloat(price),
			})
			itemID++
		}
	}
	// Shuffle so Load's clustering sort is doing real work.
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return rows
}

// EBayInsertBatch generates additional rows for the maintenance
// experiments (Experiment 3): items in existing categories with prices
// from the same per-category distribution.
func EBayInsertBatch(cfg EBayConfig, n int, seed int64) []value.Row {
	cfg.defaults()
	rng := rand.New(rand.NewSource(seed))
	medians := categoryMedians(cfg)
	rows := make([]value.Row, 0, n)
	for i := 0; i < n; i++ {
		cat := rng.Intn(cfg.Categories)
		path := catPath(cat)
		price := medians[cat] + rng.NormFloat64()*100
		if price < 0 {
			price = 0
		}
		rows = append(rows, value.Row{
			value.NewInt(int64(cat)),
			value.NewString(path[0]),
			value.NewString(path[1]),
			value.NewString(path[2]),
			value.NewString(path[3]),
			value.NewString(path[4]),
			value.NewString(path[5]),
			value.NewInt(int64(1_000_000_000 + i)),
			value.NewFloat(price),
		})
	}
	return rows
}

// categoryMedians recomputes the deterministic per-category medians the
// base generator used (the rng consumption order must match EBayItems).
func categoryMedians(cfg EBayConfig) []float64 {
	rng := rand.New(rand.NewSource(cfg.Seed))
	medians := make([]float64, cfg.Categories)
	for cat := 0; cat < cfg.Categories; cat++ {
		medians[cat] = rng.Float64() * 1_000_000
		count := cfg.ItemsPerCatMin
		if cfg.ItemsPerCatMax > cfg.ItemsPerCatMin {
			count += rng.Intn(cfg.ItemsPerCatMax - cfg.ItemsPerCatMin)
		}
		for i := 0; i < count; i++ {
			rng.NormFloat64()
		}
	}
	return medians
}

package datagen

import (
	"testing"

	"repro/internal/keyenc"
	"repro/internal/stats"
	"repro/internal/value"
)

func TestEBayDeterministic(t *testing.T) {
	cfg := EBayConfig{Categories: 20, ItemsPerCatMin: 10, ItemsPerCatMax: 20, Seed: 7}
	a := EBayItems(cfg)
	b := EBayItems(cfg)
	if len(a) != len(b) {
		t.Fatal("nondeterministic row count")
	}
	for i := range a {
		for j := range a[i] {
			if !a[i][j].Equal(b[i][j]) {
				t.Fatalf("row %d col %d differs", i, j)
			}
		}
	}
}

func TestEBaySchemaMatchesRows(t *testing.T) {
	sch := EBaySchema()
	rows := EBayItems(EBayConfig{Categories: 5, ItemsPerCatMin: 3, ItemsPerCatMax: 5})
	for _, r := range rows {
		if _, err := sch.AppendRow(nil, r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEBayHierarchyIsFunctionOfCATID(t *testing.T) {
	rows := EBayItems(EBayConfig{Categories: 50, ItemsPerCatMin: 5, ItemsPerCatMax: 10})
	paths := map[int64][6]string{}
	for _, r := range rows {
		cat := r[EBayCATID].I
		var p [6]string
		for l := 0; l < 6; l++ {
			p[l] = r[EBayCAT1+l].S
		}
		if prev, ok := paths[cat]; ok && prev != p {
			t.Fatalf("CATID %d has two different paths", cat)
		}
		paths[cat] = p
	}
	// Level-1 names must be shared across many categories (a hierarchy,
	// not per-category labels).
	l1 := map[string]int{}
	for _, p := range paths {
		l1[p[0]]++
	}
	if len(l1) >= len(paths) {
		t.Error("CAT1 is unique per category; hierarchy not shared")
	}
}

func TestEBayPriceCorrelatesWithCategory(t *testing.T) {
	rows := EBayItems(EBayConfig{Categories: 100, ItemsPerCatMin: 30, ItemsPerCatMax: 60, Seed: 3})
	// c_per_u of bucketed Price -> CATID must be far below the number of
	// categories: a $1000 price bucket should map to only a few
	// categories (sigma is $100 and medians spread over $1M).
	pc := stats.NewPairCounter()
	for _, r := range rows {
		bucket := int64(r[EBayPrice].F / 1000)
		pc.Add(keyenc.EncodeValue(value.NewInt(bucket)), keyenc.EncodeValue(r[EBayCATID]))
	}
	if got := pc.CPerU(); got > 5 {
		t.Errorf("price-bucket c_per_u = %v, expected strong correlation", got)
	}
}

func TestEBayInsertBatchSharesDistribution(t *testing.T) {
	cfg := EBayConfig{Categories: 30, ItemsPerCatMin: 10, ItemsPerCatMax: 20, Seed: 5}
	base := EBayItems(cfg)
	batch := EBayInsertBatch(cfg, 100, 99)
	if len(batch) != 100 {
		t.Fatalf("batch size %d", len(batch))
	}
	// Batch categories must exist in the base set, with matching paths.
	basePaths := map[int64]string{}
	for _, r := range base {
		basePaths[r[EBayCATID].I] = r[EBayCAT1].S
	}
	for _, r := range batch {
		want, ok := basePaths[r[EBayCATID].I]
		if !ok {
			t.Fatalf("batch category %d not in base data", r[EBayCATID].I)
		}
		if r[EBayCAT1].S != want {
			t.Fatal("batch path differs from base path")
		}
	}
}

func TestLineitemCorrelations(t *testing.T) {
	rows := Lineitems(TPCHConfig{Orders: 2000, Seed: 11})
	if len(rows) < 2000 {
		t.Fatalf("too few lineitems: %d", len(rows))
	}
	sch := LineitemSchema()
	for _, r := range rows[:50] {
		if _, err := sch.AppendRow(nil, r); err != nil {
			t.Fatal(err)
		}
	}
	// shipdate -> receiptdate: c_per_u must be tiny (bumps of 2,4,5...).
	sd := stats.NewPairCounter()
	// partkey -> suppkey: moderate (4 suppliers per part).
	ps := stats.NewPairCounter()
	// orderkey -> shipdate: weak.
	for _, r := range rows {
		sd.Add(keyenc.EncodeValue(r[LShipDate]), keyenc.EncodeValue(r[LReceiptDate]))
		ps.Add(keyenc.EncodeValue(r[LPartKey]), keyenc.EncodeValue(r[LSuppKey]))
	}
	if got := sd.CPerU(); got > 6 {
		t.Errorf("shipdate->receiptdate c_per_u = %v, want <= ~5 bumps", got)
	}
	if got := ps.CPerU(); got > 4.5 {
		t.Errorf("partkey->suppkey c_per_u = %v, want <= 4 suppliers", got)
	}
	// Receipt after ship, always.
	for _, r := range rows {
		if r[LReceiptDate].I <= r[LShipDate].I {
			t.Fatal("receipt date not after ship date")
		}
	}
}

func TestShipDates(t *testing.T) {
	rows := Lineitems(TPCHConfig{Orders: 500, Seed: 2})
	dates := ShipDates(rows)
	if len(dates) < 100 {
		t.Errorf("only %d distinct ship dates", len(dates))
	}
	seen := map[int64]bool{}
	for _, d := range dates {
		if seen[d] {
			t.Fatal("duplicate date returned")
		}
		seen[d] = true
	}
}

func TestSDSSShape(t *testing.T) {
	cfg := SDSSConfig{Stripes: 4, FieldsPerStripe: 10, ObjsPerField: 30, Seed: 13}
	rows := PhotoTag(cfg)
	if len(rows) != cfg.Rows() {
		t.Fatalf("rows = %d, want %d", len(rows), cfg.Rows())
	}
	sch := SDSSSchema()
	if len(sch.Cols) != SDSSNumCols {
		t.Fatalf("schema has %d cols, want %d", len(sch.Cols), SDSSNumCols)
	}
	for _, r := range rows[:20] {
		if _, err := sch.AppendRow(nil, r); err != nil {
			t.Fatal(err)
		}
	}
	// objID strictly increasing (survey order).
	for i := 1; i < len(rows); i++ {
		if rows[i][SDSSObjID].I <= rows[i-1][SDSSObjID].I {
			t.Fatal("objID not increasing")
		}
	}
}

func TestSDSSFieldIDContiguousInObjIDOrder(t *testing.T) {
	rows := PhotoTag(SDSSConfig{Stripes: 3, FieldsPerStripe: 5, ObjsPerField: 20, Seed: 1})
	// fieldID changes monotonically along the survey order: each field's
	// objects form one contiguous objID run.
	last := int64(-1)
	seen := map[int64]bool{}
	for _, r := range rows {
		f := r[SDSSFieldID].I
		if f != last {
			if seen[f] {
				t.Fatalf("fieldID %d appears in two separate runs", f)
			}
			seen[f] = true
			last = f
		}
	}
}

func TestSDSSCompositeBeatsSingles(t *testing.T) {
	// The Table 6 premise: (ra, dec) predicts fieldID far better than ra
	// or dec alone. Measured as c_per_u of bucketed coordinates against
	// fieldID.
	rows := PhotoTag(SDSSConfig{Stripes: 8, FieldsPerStripe: 20, ObjsPerField: 40, Seed: 5})
	ra := stats.NewPairCounter()
	dec := stats.NewPairCounter()
	pair := stats.NewPairCounter()
	bucket := func(v float64, w float64) value.Value { return value.NewInt(int64(v / w)) }
	for _, r := range rows {
		f := keyenc.EncodeValue(r[SDSSFieldID])
		rb := keyenc.EncodeValue(bucket(r[SDSSRa].F, 2))
		db := keyenc.EncodeValue(bucket(r[SDSSDec].F+10, 1))
		ra.Add(rb, f)
		dec.Add(db, f)
		pair.Add(append(append([]byte{}, rb...), db...), f)
	}
	if pair.CPerU() > ra.CPerU() || pair.CPerU() > dec.CPerU() {
		t.Errorf("composite c_per_u %v should beat ra %v and dec %v",
			pair.CPerU(), ra.CPerU(), dec.CPerU())
	}
	if ra.CPerU() < 2*pair.CPerU() {
		t.Errorf("ra alone (%v) should be much weaker than the pair (%v)",
			ra.CPerU(), pair.CPerU())
	}
}

func TestSDSSMagnitudesMutuallyCorrelated(t *testing.T) {
	rows := PhotoTag(SDSSConfig{Stripes: 2, FieldsPerStripe: 5, ObjsPerField: 50, Seed: 9})
	// psfMag_g and petroMag_g differ by small noise: bucketed at 1 mag
	// they should rarely disagree by more than a bucket.
	agree := 0
	for _, r := range rows {
		a := int64(r[SDSSPsfMagG].F)
		b := int64(r[SDSSPetroMagG].F)
		if a == b || a == b+1 || a == b-1 {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(rows)); frac < 0.99 {
		t.Errorf("magnitude agreement %v too low", frac)
	}
}

func TestSDSSCardinalitiesForTable4(t *testing.T) {
	// Table 4 lists mode with 3 values and type with ~5-6; the defaults
	// produce 250 fields.
	rows := PhotoTag(SDSSConfig{Seed: 4})
	modes := map[int64]bool{}
	types := map[int64]bool{}
	fields := map[int64]bool{}
	for _, r := range rows {
		modes[r[SDSSMode].I] = true
		types[r[SDSSType].I] = true
		fields[r[SDSSFieldID].I] = true
	}
	if len(modes) != 3 {
		t.Errorf("mode cardinality = %d, want 3", len(modes))
	}
	if len(types) < 4 || len(types) > 7 {
		t.Errorf("type cardinality = %d, want ~5", len(types))
	}
	if len(fields) != 250 {
		t.Errorf("fieldID cardinality = %d, want 250", len(fields))
	}
}

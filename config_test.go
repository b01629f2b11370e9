package repro

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// configEffect is what one cold full-table scan and an immediate second
// scan show of the Config a DB was opened with.
type configEffect struct {
	heapPages int64
	virtual   time.Duration // the cold scan's virtual disk time
	rereads   uint64        // disk reads of the second scan
	chunks    int64         // chunks the cold scan's sweep fanned out into
	ioWait    int64         // real I/O wait slept during the cold scan, ns
	err       error         // the cold scan's error
}

// measureConfig opens a DB with cfg, loads ~50 pages of rows (at 8 KiB
// pages) and scans them twice from a cold cache.
func measureConfig(t *testing.T, cfg Config) configEffect {
	t.Helper()
	db := Open(cfg)
	tbl, err := db.CreateTable(TableSpec{
		Name:        "cfg",
		Columns:     []Column{{Name: "c", Kind: Int}, {Name: "pad", Kind: String}},
		ClusteredBy: []string{"c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 2000
	pad := strings.Repeat("p", 200)
	data := make([]Row, rows)
	for i := range data {
		data[i] = Row{IntVal(int64(i)), StringVal(pad)}
	}
	if err := tbl.Load(data); err != nil {
		t.Fatal(err)
	}
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	metric := func(name string) int64 { return db.Metrics(name)[0].Value }
	scan := func() error {
		n := 0
		if err := db.SelectSpec(context.Background(), QuerySpec{Table: tbl.Name(), Via: TableScan}, func(Row) bool { n++; return true }); err != nil {
			return err
		}
		if n != rows {
			t.Fatalf("scan saw %d rows, want %d", n, rows)
		}
		return nil
	}
	s0, chunks0, wait0 := db.Stats(), metric("query.sweep_chunks"), metric("disk.io_wait_ns")
	eff := configEffect{heapPages: tbl.HeapPages(), err: scan()}
	if eff.err != nil {
		return eff
	}
	s1 := db.Stats()
	eff.virtual = s1.Elapsed - s0.Elapsed
	eff.chunks = metric("query.sweep_chunks") - chunks0
	eff.ioWait = metric("disk.io_wait_ns") - wait0
	if err := scan(); err != nil {
		t.Fatal(err)
	}
	eff.rereads = db.Stats().Reads - s1.Reads
	return eff
}

// TestConfigFieldsHaveEffect holds every Config field to a measurable
// effect: each entry sets its field to a non-default value and says what
// that changes against the baseline, the zero Config with Workers pinned
// to 1 so the fan-out comparison does not depend on the host's CPU
// count. The field list comes from reflection, so a new field without an
// entry fails here — a setting that changes nothing observable has no
// place in Config.
func TestConfigFieldsHaveEffect(t *testing.T) {
	base := Config{Workers: 1}
	cases := map[string]struct {
		set    func(*Config)
		effect func(base, got configEffect) error
	}{
		"PageSize": {
			func(c *Config) { c.PageSize = 1024 },
			func(b, g configEffect) error {
				if g.heapPages <= b.heapPages {
					return fmt.Errorf("heap spans %d pages, %d at 8 KiB pages; want more", g.heapPages, b.heapPages)
				}
				return nil
			},
		},
		"SeekCost": {
			func(c *Config) { c.SeekCost = 50 * time.Millisecond },
			func(b, g configEffect) error {
				if g.virtual <= b.virtual {
					return fmt.Errorf("cold scan cost %v virtual, %v at the default seek; want more", g.virtual, b.virtual)
				}
				return nil
			},
		},
		"SeqPageCost": {
			func(c *Config) { c.SeqPageCost = time.Millisecond },
			func(b, g configEffect) error {
				if g.virtual <= b.virtual {
					return fmt.Errorf("cold scan cost %v virtual, %v at the default page cost; want more", g.virtual, b.virtual)
				}
				return nil
			},
		},
		"BufferPoolPages": {
			func(c *Config) { c.BufferPoolPages = 16 },
			func(b, g configEffect) error {
				if b.rereads != 0 || g.rereads == 0 {
					return fmt.Errorf("second scan read %d pages through a 16-page pool, %d through the default; want some and none", g.rereads, b.rereads)
				}
				return nil
			},
		},
		"Workers": {
			func(c *Config) { c.Workers = 4 },
			func(b, g configEffect) error {
				if b.chunks != 0 || g.chunks == 0 {
					return fmt.Errorf("cold scan fanned out into %d chunks at 4 workers, %d at 1; want some and none", g.chunks, b.chunks)
				}
				return nil
			},
		},
		"IOWaitScale": {
			func(c *Config) { c.IOWaitScale = 1 },
			func(b, g configEffect) error {
				if b.ioWait != 0 || g.ioWait == 0 {
					return fmt.Errorf("cold scan slept %d ns of I/O wait, %d without the scale; want some and none", g.ioWait, b.ioWait)
				}
				return nil
			},
		},
		"StatementTimeout": {
			func(c *Config) { c.StatementTimeout = time.Nanosecond },
			func(b, g configEffect) error {
				if b.err != nil || !errors.Is(g.err, context.DeadlineExceeded) {
					return fmt.Errorf("scan under a 1 ns deadline returned %v, without one %v; want DeadlineExceeded and nil", g.err, b.err)
				}
				return nil
			},
		},
	}

	typ := reflect.TypeOf(Config{})
	fields := make(map[string]bool, typ.NumField())
	for i := 0; i < typ.NumField(); i++ {
		fields[typ.Field(i).Name] = true
	}
	for name := range cases {
		if !fields[name] {
			t.Errorf("entry %s names no Config field", name)
		}
	}
	baseEff := measureConfig(t, base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		c, ok := cases[name]
		if !ok {
			t.Errorf("Config.%s has no entry: give it a measurable effect here, or delete it", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			cfg := base
			c.set(&cfg)
			if reflect.ValueOf(cfg).Field(i).Interface() == reflect.ValueOf(base).Field(i).Interface() {
				t.Fatalf("the entry leaves Config.%s at its baseline value", name)
			}
			if err := c.effect(baseEff, measureConfig(t, cfg)); err != nil {
				t.Error(err)
			}
		})
	}
}

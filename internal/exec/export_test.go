package exec

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/value"
)

// PlannerFixture hands buildTestDB's table (index "u" and CM "u" over
// column 1), its rows and its disk to the external test package:
// choose_test.go drives internal/plan — which imports this package, so
// those tests cannot live inside it — over the executors' own fixture.
func PlannerFixture(t *testing.T, n int, seed int64) (*table.Table, []value.Row, *sim.Disk) {
	db := buildTestDB(t, n, seed, 0)
	return db.tbl, db.rows, db.disk
}

package repro

import (
	"reflect"
	"strings"
	"testing"
)

// TestFacadeSurface pins the exported method sets of the facade's
// handles, so a new public door shows up as a diff to these lists. *DB
// has one context-taking door per statement kind — SelectSpec (query),
// UpdateCtx and DeleteCtx (write), ExplainSpec and ExplainAnalyzeSpec
// (plan), ExecScriptStreamCtx (SQL) — plus the sugar over them and the
// engine's knobs and counters; *Table has its schema-level operations
// and the projection sugar.
func TestFacadeSurface(t *testing.T) {
	for _, c := range []struct {
		v    any
		want []string
	}{
		{(*DB)(nil), []string{
			"ColdCache", "CreateTable", "DeleteCtx", "Exec", "ExecScriptCtx",
			"ExecScriptStreamCtx", "ExplainAnalyzeSpec", "ExplainSpec",
			"MetricCounter", "Metrics", "PinnedFrames", "PrepareSelect", "ResetMetrics",
			"ResetStats", "SelectAggregateCtx", "SelectSpec", "SetFaultPlan",
			"SetMetricsEnabled", "SetStatementTimeout", "StatementTimeout", "Stats",
			"Table", "UpdateCtx", "Workers",
		}},
		{(*Table)(nil), []string{
			"Advise", "CMs", "Commit", "CreateCM", "CreateIndex", "DiscoverFDs",
			"HeapPages", "Indexes", "Insert", "Load", "Name", "RowCount",
			"SelectProject", "SelectProjectVia",
		}},
		{(*PreparedSelect)(nil), []string{}},
	} {
		typ := reflect.TypeOf(c.v)
		got := make([]string, typ.NumMethod())
		for i := range got {
			got[i] = typ.Method(i).Name
		}
		if strings.Join(got, " ") != strings.Join(c.want, " ") {
			t.Errorf("%v exports %d methods:\n got  %v\n want %v", typ, len(got), got, c.want)
		}
	}
}

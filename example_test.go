package repro_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro"
)

// Example_quickstart is the paper's running example (Figure 4) through
// the Go API. A people table is clustered on state; city is correlated
// with state (a soft functional dependency: "boston" is almost always in
// MA, but also in NH). A correlation map on city answers city predicates
// through the clustered index at a fraction of a secondary B+Tree's size.
func Example_quickstart() {
	db := repro.Open(repro.Config{})
	people, err := db.CreateTable(repro.TableSpec{
		Name: "people",
		Columns: []repro.Column{
			{Name: "state", Kind: repro.String},
			{Name: "city", Kind: repro.String},
			{Name: "salary", Kind: repro.Int},
		},
		ClusteredBy:  []string{"state"},
		BucketTuples: 1, // one clustered bucket per state
	})
	if err != nil {
		log.Fatal(err)
	}

	rows := []repro.Row{
		{repro.StringVal("MA"), repro.StringVal("boston"), repro.IntVal(25000)},
		{repro.StringVal("NH"), repro.StringVal("boston"), repro.IntVal(45000)},
		{repro.StringVal("MA"), repro.StringVal("boston"), repro.IntVal(50000)},
		{repro.StringVal("MN"), repro.StringVal("manchester"), repro.IntVal(40000)},
		{repro.StringVal("MA"), repro.StringVal("cambridge"), repro.IntVal(110000)},
		{repro.StringVal("MS"), repro.StringVal("jackson"), repro.IntVal(80000)},
		{repro.StringVal("MA"), repro.StringVal("springfield"), repro.IntVal(90000)},
		{repro.StringVal("NH"), repro.StringVal("manchester"), repro.IntVal(60000)},
		{repro.StringVal("OH"), repro.StringVal("springfield"), repro.IntVal(95000)},
		{repro.StringVal("OH"), repro.StringVal("toledo"), repro.IntVal(70000)},
	}
	if err := people.Load(rows); err != nil {
		log.Fatal(err)
	}

	// Build the correlation map on city (Algorithm 1: one scan).
	if err := people.CreateCM("city_cm", repro.CMColumn{Name: "city"}); err != nil {
		log.Fatal(err)
	}
	info := people.CMs()[0]
	fmt.Printf("CM on city: %d keys, %d (city,state-bucket) pairs, %d bytes, c_per_u %.2f\n",
		info.Keys, info.Pairs, info.SizeBytes, info.CPerU)

	// The paper's query:
	//   SELECT AVG(salary) FROM people
	//   WHERE city = 'boston' OR city = 'springfield'
	// The CM rewrites it into a scan of the MA, NH and OH state ranges,
	// re-filtered on city.
	ctx := context.Background()
	var sum, n int64
	err = db.SelectSpec(ctx, repro.QuerySpec{
		Table: "people",
		Via:   repro.CMScan,
		Preds: []repro.Pred{repro.In("city", repro.StringVal("boston"), repro.StringVal("springfield"))},
	}, func(r repro.Row) bool {
		fmt.Printf("  %s / %-12s salary %6d\n", r[0].Str(), r[1].Str(), r[2].Int())
		sum += r[2].Int()
		n++
		return true
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AVG(salary) over %d matching rows = %d\n", n, sum/n)

	// Maintenance: a new Boston appears in Ohio; the CM tracks it.
	if err := people.Insert(repro.Row{
		repro.StringVal("OH"), repro.StringVal("boston"), repro.IntVal(33000),
	}); err != nil {
		log.Fatal(err)
	}
	if err := people.Commit(); err != nil {
		log.Fatal(err)
	}
	boston := []repro.Pred{repro.Eq("city", repro.StringVal("boston"))}
	count := 0
	err = db.SelectSpec(ctx, repro.QuerySpec{Table: "people", Via: repro.CMScan, Preds: boston},
		func(repro.Row) bool { count++; return true })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after insert, boston matches %d rows (CM now maps boston to MA, NH and OH)\n", count)

	// What does the optimizer think?
	plan, err := db.ExplainSpec(repro.QuerySpec{Table: "people", Preds: boston})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan: %v (estimated %.2f ms)\n", plan.Method,
		float64(plan.EstimatedCost.Microseconds())/1000)

	// Output:
	// CM on city: 6 keys, 9 (city,state-bucket) pairs, 175 bytes, c_per_u 1.50
	//   MA / boston       salary  25000
	//   MA / boston       salary  50000
	//   MA / springfield  salary  90000
	//   NH / boston       salary  45000
	//   OH / springfield  salary  95000
	// AVG(salary) over 5 matching rows = 61000
	// after insert, boston matches 4 rows (CM now maps boston to MA, NH and OH)
	// plan: table-scan (estimated 0.08 ms)
}

// Example_sqlTour drives the same running example entirely through the
// SQL front-end — statements only, the way a cmserver client issues
// them — then the paper's own query shape, SELECT AVG(salary) FROM
// employees WHERE city = ..., over a deterministic correlated workload.
func Example_sqlTour() {
	db := repro.Open(repro.Config{})
	mustScript(db, `
CREATE TABLE people (state STRING, city STRING, salary INT) CLUSTERED BY (state) BUCKET TUPLES 1;
LOAD INTO people VALUES
 ('MA', 'boston', 25000), ('NH', 'boston', 45000), ('MA', 'boston', 50000),
 ('MN', 'manchester', 40000), ('MA', 'cambridge', 110000), ('MS', 'jackson', 80000),
 ('MA', 'springfield', 90000), ('NH', 'manchester', 60000), ('OH', 'springfield', 95000),
 ('OH', 'toledo', 70000);
CREATE CORRELATION MAP city_cm ON people (city);
`)
	runStatements(db,
		"SHOW CMS FOR people",
		"SELECT * FROM people WHERE city IN ('boston', 'springfield')",
		"EXPLAIN SELECT * FROM people WHERE city = 'boston'",
		"SELECT city, salary FROM people WHERE salary > 50000 AND city != 'jackson' LIMIT 3",
		"SHOW SOFT FDS FOR people MIN STRENGTH 0.5",
		"ADVISE CM FOR SELECT * FROM people WHERE city = 'boston' WITHIN 50 PERCENT",
		"INSERT INTO people VALUES ('OH', 'boston', 33000)",
		"SELECT state FROM people WHERE city = 'boston'",
		"DELETE FROM people WHERE salary < 30000",
		"COMMIT people",
		"SHOW TABLES",
	)

	// The employees table's city column soft-determines its clustered
	// state column: 80 employees per state, one out-of-state commuter in
	// every 16 rows, salaries a base plus a city premium plus a step.
	var sb strings.Builder
	sb.WriteString("CREATE TABLE employees (state STRING, city STRING, salary INT) CLUSTERED BY (state) BUCKET TUPLES 8;\n")
	sb.WriteString("LOAD INTO employees VALUES ")
	states := []string{"CA", "MA", "NH", "OH"}
	cities := []string{"fresno", "boston", "nashua", "toledo"}
	for i := 0; i < 320; i++ {
		si := i / 80
		ci := si
		if i%16 == 15 {
			ci = (si + 1) % len(cities)
		}
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "('%s', '%s', %d)", states[si], cities[ci], 30000+ci*10000+(i%8)*1000)
	}
	sb.WriteString(";\nCREATE CORRELATION MAP cm_city ON employees (city);")
	mustScript(db, sb.String())
	runStatements(db,
		"SELECT AVG(salary) FROM employees WHERE city = 'boston'",
		"EXPLAIN SELECT AVG(salary) FROM employees WHERE city = 'boston'",
		"SELECT city, COUNT(*), AVG(salary) FROM employees GROUP BY city ORDER BY AVG(salary) DESC",
		"SELECT state, salary FROM employees WHERE city = 'boston' OR salary > 62000 ORDER BY salary DESC LIMIT 3",
		"SELECT MIN(salary), MAX(salary), SUM(salary) FROM employees WHERE city IN ('boston', 'toledo')",
		"SELECT DISTINCT city FROM employees WHERE salary > 60000",
		"SELECT city, COUNT(*) FROM employees GROUP BY city HAVING AVG(salary) >= 43500 ORDER BY city",
	)

	// Output:
	// cm> SHOW CMS FOR people
	// cm | columns | size_bytes | keys | pairs | c_per_u | stats_bytes
	// city_cm | city | 175 | 6 | 9 | 1.5 | 2555
	// (1 rows)
	// cm> SELECT * FROM people WHERE city IN ('boston', 'springfield')
	// state | city | salary
	// MA | boston | 25000
	// MA | boston | 50000
	// MA | springfield | 90000
	// NH | boston | 45000
	// OH | springfield | 95000
	// (5 rows)
	// cm> EXPLAIN SELECT * FROM people WHERE city = 'boston'
	// method | uses | est_cost | decoded_cols
	// table-scan |  | 78µs | 3
	// filter | city = boston |  | 0
	// (2 rows)
	// cm> SELECT city, salary FROM people WHERE salary > 50000 AND city != 'jackson' LIMIT 3
	// city | salary
	// cambridge | 110000
	// springfield | 90000
	// manchester | 60000
	// (3 rows)
	// cm> SHOW SOFT FDS FOR people MIN STRENGTH 0.5
	// determinant | dependent | strength
	// city | state | 0.6666666666666666
	// city | salary | 0.6
	// state | city | 0.5555555555555556
	// state | salary | 0.5
	// (4 rows)
	// cm> ADVISE CM FOR SELECT * FROM people WHERE city = 'boston' WITHIN 50 PERCENT
	// design | size_bytes | slowdown_pct | est_runtime | est_btree_bytes
	// city(2^1) | 132 | 0 | 78µs | 318
	// city(2^2) | 138 | 0 | 78µs | 318
	// city(2^4) | 150 | 0 | 78µs | 318
	// city(2^8) | 168 | 0 | 78µs | 318
	// city | 175 | 0 | 78µs | 318
	// (5 rows)
	// cm> INSERT INTO people VALUES ('OH', 'boston', 33000)
	// INSERT 1
	// cm> SELECT state FROM people WHERE city = 'boston'
	// state
	// MA
	// MA
	// NH
	// OH
	// (4 rows)
	// cm> DELETE FROM people WHERE salary < 30000
	// DELETE 1
	// cm> COMMIT people
	// COMMIT people
	// cm> SHOW TABLES
	// table | rows | heap_pages | indexes | cms
	// people | 10 | 1 | 0 | 1
	// (1 rows)
	// cm> SELECT AVG(salary) FROM employees WHERE city = 'boston'
	// avg(salary)
	// 43500
	// (1 rows)
	// cm> EXPLAIN SELECT AVG(salary) FROM employees WHERE city = 'boston'
	// method | uses | est_cost | decoded_cols
	// cm-agg | cm-agg(cm_city): 1 keys, 2 entries from bucket statistics, index-only | 0s | 0
	// (1 rows)
	// cm> SELECT city, COUNT(*), AVG(salary) FROM employees GROUP BY city ORDER BY AVG(salary) DESC
	// city | count(*) | avg(salary)
	// toledo | 80 | 63500
	// nashua | 80 | 53500
	// boston | 80 | 43500
	// fresno | 80 | 33500
	// (4 rows)
	// cm> SELECT state, salary FROM employees WHERE city = 'boston' OR salary > 62000 ORDER BY salary DESC LIMIT 3
	// state | salary
	// NH | 67000
	// NH | 67000
	// NH | 67000
	// (3 rows)
	// cm> SELECT MIN(salary), MAX(salary), SUM(salary) FROM employees WHERE city IN ('boston', 'toledo')
	// min(salary) | max(salary) | sum(salary)
	// 40000 | 67000 | 8560000
	// (1 rows)
	// cm> SELECT DISTINCT city FROM employees WHERE salary > 60000
	// city
	// toledo
	// (1 rows)
	// cm> SELECT city, COUNT(*) FROM employees GROUP BY city HAVING AVG(salary) >= 43500 ORDER BY city
	// city | count(*)
	// boston | 80
	// nashua | 80
	// toledo | 80
	// (3 rows)
}

// mustScript runs a multi-statement script, stopping on the first error.
func mustScript(db *repro.DB, script string) {
	results, err := db.ExecScriptCtx(context.Background(), script)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
	}
}

// runStatements executes each statement and prints it with its result
// as a line client would render them.
func runStatements(db *repro.DB, stmts ...string) {
	for _, stmt := range stmts {
		fmt.Printf("cm> %s\n", stmt)
		res, err := db.Exec(stmt)
		if err != nil {
			log.Fatal(err)
		}
		if len(res.Columns) == 0 {
			if res.Message != "" {
				fmt.Println(res.Message)
			} else {
				fmt.Println("ok")
			}
			continue
		}
		fmt.Println(strings.Join(res.Columns, " | "))
		for _, row := range res.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			fmt.Println(strings.Join(cells, " | "))
		}
		fmt.Printf("(%d rows)\n", len(res.Rows))
	}
}

package hypdb_test

import (
	"context"
	"fmt"
	"log"

	"hypdb"
	"hypdb/internal/memsql"
)

// kidneyTable builds the classic kidney-stone dataset: treatment A beats B
// within each stone-size stratum yet loses in the aggregate — Simpson's
// paradox, with Size the confounding covariate.
func kidneyTable() *hypdb.Table {
	b := hypdb.NewBuilder("T", "Size", "Success")
	add := func(t, size string, success, total int) {
		for i := 0; i < total; i++ {
			s := "0"
			if i < success {
				s = "1"
			}
			if err := b.Add(t, size, s); err != nil {
				log.Fatal(err)
			}
		}
	}
	add("A", "small", 81, 87)
	add("B", "small", 234, 270)
	add("A", "large", 192, 263)
	add("B", "large", 55, 80)
	tab, err := b.Table()
	if err != nil {
		log.Fatal(err)
	}
	return tab
}

// ExampleOpen opens a session handle over an in-memory table and inspects
// its schema — the starting point for every analysis.
func ExampleOpen() {
	db := hypdb.Open(kidneyTable())
	defer db.Close()

	ctx := context.Background()
	n, err := db.NumRows(ctx)
	if err != nil {
		log.Fatal(err)
	}
	attrs, err := db.Attributes(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d rows\n", n)
	for _, a := range attrs {
		fmt.Printf("%s: %d distinct\n", a.Name, a.Distinct)
	}
	// Output:
	// 700 rows
	// T: 2 distinct
	// Size: 2 distinct
	// Success: 2 distinct
}

// ExampleOpenSQL analyzes a table served by a database/sql driver — the
// engine pushes its group-by count queries down to the database. The
// in-process memsql driver stands in for a real DBMS here.
func ExampleOpenSQL() {
	memsql.Register("stones", kidneyTable())
	defer memsql.Unregister("stones")
	conn, err := memsql.Open("")
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	db, err := hypdb.OpenSQL(ctx, conn, "stones")
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close() // releases the *sql.DB

	n, err := db.NumRows(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d rows via SQL pushdown\n", n)
	// Output:
	// 700 rows via SQL pushdown
}

// ExampleDB_Analyze runs the full detect → explain → resolve pipeline on
// one query. Size is fixed as the covariate (domain knowledge says it
// confounds — doctors assign the treatment by stone size); the balance
// test flags the bias and the rewriting reverses the naive comparison.
func ExampleDB_Analyze() {
	db := hypdb.Open(kidneyTable())
	defer db.Close()

	report, err := db.Analyze(context.Background(), hypdb.Query{
		Treatment: "T",
		Outcomes:  []string{"Success"},
	}, hypdb.WithMethod(hypdb.ChiSquared), hypdb.WithSeed(1),
		hypdb.WithCovariates("Size"))
	if err != nil {
		log.Fatal(err)
	}
	naive := report.OriginalComparisons[0].Diffs[0]
	adjusted := report.TotalComparisons[0].Diffs[0]
	fmt.Printf("biased: %v\n", report.BiasTotal[0].Biased)
	fmt.Printf("naive B－A:    %+.3f\n", naive)
	fmt.Printf("adjusted B－A: %+.3f\n", adjusted)
	// Output:
	// biased: true
	// naive B－A:    +0.046
	// adjusted B－A: -0.054
}

// ExampleDB_Audit sweeps the whole (treatment, outcome) query lattice
// instead of analyzing one hand-picked query: the sweep enumerates every
// eligible attribute pair, prunes low-support candidates, and ranks the
// biased queries by effect-reversal strength.
func ExampleDB_Audit() {
	db := hypdb.Open(kidneyTable())
	defer db.Close()

	report, err := db.Audit(context.Background(), hypdb.AuditSpec{},
		hypdb.WithMethod(hypdb.ChiSquared), hypdb.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("candidates: %d, biased: %d\n", report.Candidates, report.TotalFindings)
	for _, f := range report.Findings {
		if f.AdjustedDiff != nil { // nil when no rewriting was possible
			fmt.Printf("avg(%s) by %s: %+.3f → %+.3f (reversed=%v)\n",
				f.Outcome, f.Treatment, f.OriginalDiff, *f.AdjustedDiff, f.Reversed)
		}
	}
	// Output:
	// candidates: 2, biased: 2
	// avg(Success) by T: +0.046 → -0.048 (reversed=true)
	// avg(Success) by Size: +0.162 → +0.190 (reversed=false)
}

// ExampleDB_Run executes a group-by-average query and compares the two
// treatment groups — the starting point of every HypDB analysis.
func ExampleDB_Run() {
	b := hypdb.NewBuilder("Carrier", "Airport", "Delayed")
	rows := [][]string{
		{"AA", "COS", "0"}, {"AA", "COS", "0"}, {"AA", "COS", "1"},
		{"AA", "ROC", "1"}, {"UA", "COS", "0"},
		{"UA", "ROC", "1"}, {"UA", "ROC", "0"}, {"UA", "ROC", "1"},
	}
	for _, r := range rows {
		if err := b.Add(r...); err != nil {
			log.Fatal(err)
		}
	}
	tab, err := b.Table()
	if err != nil {
		log.Fatal(err)
	}
	db := hypdb.Open(tab)
	defer db.Close()

	ans, err := db.Run(context.Background(), hypdb.Query{
		Treatment: "Carrier",
		Outcomes:  []string{"Delayed"},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range ans.Rows {
		fmt.Printf("%s %.2f\n", row.Treatment, row.Avgs[0])
	}
	// Output:
	// AA 0.50
	// UA 0.50
}

// ExampleDB_RewriteTotal removes confounding by adjusting for a covariate:
// the classic kidney-stone data where treatment A wins in every stratum yet
// loses in the aggregate.
func ExampleDB_RewriteTotal() {
	db := hypdb.Open(kidneyTable())
	defer db.Close()

	ctx := context.Background()
	q := hypdb.Query{Treatment: "T", Outcomes: []string{"Success"}}
	naive, err := db.Run(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	adjusted, err := db.RewriteTotal(ctx, q, []string{"Size"})
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range naive.Rows {
		fmt.Printf("naive    %s %.3f\n", row.Treatment, row.Avgs[0])
	}
	for _, row := range adjusted.Rows {
		fmt.Printf("adjusted %s %.3f\n", row.Treatment, row.Avgs[0])
	}
	// Output:
	// naive    A 0.780
	// naive    B 0.826
	// adjusted A 0.833
	// adjusted B 0.779
}

package main

import (
	"context"
	"fmt"

	"hypdb"
	"hypdb/internal/datagen"
	"hypdb/internal/dataset"
	"hypdb/internal/query"
	"hypdb/source"
	"hypdb/source/mem"
)

func init() {
	register("fig1", "Flight Simpson's paradox: biased query, explanations, refined answers", runFig1)
	register("table1", "runtime of detection / explanation / resolution per dataset", runTable1)
	register("fig3", "Adult gender→income and Staples income→price reports", runFig3)
	register("fig4", "Berkeley gender→admission and Cancer lung-cancer→accident reports", runFig4)
	register("listing3", "rewritten SQL of the Fig 1 query", runListing3)
}

func flightRowsFor(cfg runConfig) int {
	if cfg.quick {
		return 12000
	}
	return datagen.FlightRows
}

func runFig1(cfg runConfig) error {
	tab, err := datagen.Flight(flightRowsFor(cfg), cfg.seed)
	if err != nil {
		return err
	}
	q := datagen.FlightQuery()
	rep, err := hypdb.Open(tab).Analyze(context.Background(), q, analysisOpts(cfg)...)
	if err != nil {
		return err
	}
	fmt.Println(rep)

	// Panels (a)-(c) of Fig 1: per-airport delay and the carrier/airport
	// distributions behind the reversal.
	section("(a) carrier delay by airport (UA better everywhere)")
	perAirport := q
	perAirport.Groupings = []string{"Airport"}
	ans, err := query.Run(context.Background(), mem.New(tab), perAirport)
	if err != nil {
		return err
	}
	for _, r := range ans.Rows {
		row("%-3s %-4s avg(Delayed)=%.3f (n=%d)", r.Context[0], r.Treatment, r.Avgs[0], r.Count)
	}

	section("(b) airport distribution by carrier")
	viewRel, err := q.View(context.Background(), mem.New(tab))
	if err != nil {
		return err
	}
	view, err := source.Materialize(context.Background(), viewRel)
	if err != nil {
		return err
	}
	if err := printConditional(view, "Carrier", "Airport"); err != nil {
		return err
	}
	section("(c) delay rate by airport")
	groups, err := view.GroupBy("Airport")
	if err != nil {
		return err
	}
	airport := view.MustColumn("Airport")
	delays, err := view.Float("Delayed")
	if err != nil {
		return err
	}
	for _, g := range groups {
		sum := 0.0
		for _, i := range g.Rows {
			sum += delays[i]
		}
		row("Airport=%s: %.3f", airport.Label(g.Key.Field(0)), sum/float64(len(g.Rows)))
	}
	return nil
}

// printConditional prints P(b | a) rows.
func printConditional(view *dataset.Table, a, b string) error {
	groups, err := view.GroupBy(a, b)
	if err != nil {
		return err
	}
	ac, bc := view.MustColumn(a), view.MustColumn(b)
	totals := map[string]int{}
	type cell struct {
		a, b string
		n    int
	}
	var cells []cell
	for _, g := range groups {
		av := a + "=" + ac.Label(g.Key.Field(0))
		bv := b + "=" + bc.Label(g.Key.Field(1))
		totals[av] += len(g.Rows)
		cells = append(cells, cell{av, bv, len(g.Rows)})
	}
	for _, c := range cells {
		row("P(%s | %s) = %.3f", c.b, c.a, float64(c.n)/float64(totals[c.a]))
	}
	return nil
}

// analysisOpts is the shared experiment configuration in the public API's
// functional-option form.
func analysisOpts(cfg runConfig) []hypdb.Option {
	opts := []hypdb.Option{hypdb.WithSeed(cfg.seed), hypdb.WithParallel(true)}
	if cfg.quick {
		opts = append(opts, hypdb.WithPermutations(200))
	}
	return opts
}

func runTable1(cfg runConfig) error {
	type entry struct {
		name string
		gen  func() (*dataset.Table, error)
		q    query.Query
	}
	scale := func(n int) int {
		if cfg.quick {
			if n > 20000 {
				return 20000
			}
		}
		return n
	}
	entries := []entry{
		{"AdultData", func() (*dataset.Table, error) { return datagen.Adult(scale(datagen.AdultRows), cfg.seed) }, datagen.AdultQuery()},
		{"StaplesData", func() (*dataset.Table, error) { return datagen.Staples(scale(datagen.StaplesRows), cfg.seed) }, datagen.StaplesQuery()},
		{"BerkeleyData", func() (*dataset.Table, error) { return datagen.Berkeley(cfg.seed) }, datagen.BerkeleyQuery()},
		{"CancerData", func() (*dataset.Table, error) { return datagen.Cancer(datagen.CancerRows, cfg.seed) }, datagen.CancerQuery()},
		{"FlightData", func() (*dataset.Table, error) { return datagen.Flight(scale(datagen.FlightRows), cfg.seed) }, datagen.FlightQuery()},
	}
	row("%-14s %8s %8s %6s %6s %6s", "Dataset", "Cols", "Rows", "Det(s)", "Exp(s)", "Res(s)")
	for _, e := range entries {
		tab, err := e.gen()
		if err != nil {
			return err
		}
		rep, err := hypdb.Open(tab).Analyze(context.Background(), e.q, analysisOpts(cfg)...)
		if err != nil {
			return err
		}
		row("%-14s %8d %8d %6.2f %6.2f %6.2f",
			e.name, tab.NumCols(), tab.NumRows(),
			rep.Timing.Detect.Seconds(), rep.Timing.Explain.Seconds(), rep.Timing.Resolve.Seconds())
	}
	row("(paper, authors' testbed: Adult 65/<1/<1, Staples 5/<1/<1, Berkeley 2/<1/<1, Cancer <1/<1/<1, Flight 20/<1/<1)")
	return nil
}

func runFig3(cfg runConfig) error {
	section("AdultData: the effect of gender on income (paper Fig 3 top)")
	adultRows := datagen.AdultRows
	if cfg.quick {
		adultRows = 20000
	}
	adult, err := datagen.Adult(adultRows, cfg.seed)
	if err != nil {
		return err
	}
	rep, err := hypdb.Open(adult).Analyze(context.Background(), datagen.AdultQuery(), analysisOpts(cfg)...)
	if err != nil {
		return err
	}
	fmt.Println(rep)
	row("(paper: SQL 0.11/0.30, total 0.23/0.25, direct 0.10/0.11; top resp. MaritalStatus 0.58, Education 0.13)")

	section("StaplesData: the effect of income on price (paper Fig 3 bottom)")
	staplesRows := datagen.StaplesRows
	if cfg.quick {
		staplesRows = 50000
	}
	staples, err := datagen.Staples(staplesRows, cfg.seed)
	if err != nil {
		return err
	}
	rep, err = hypdb.Open(staples).Analyze(context.Background(), datagen.StaplesQuery(), analysisOpts(cfg)...)
	if err != nil {
		return err
	}
	fmt.Println(rep)
	row("(paper: SQL 0.06/0.05 diff p<0.001; direct diff 0 with p=1; Distance responsibility 1.0)")
	return nil
}

func runFig4(cfg runConfig) error {
	section("BerkeleyData: the effect of gender on admission (paper Fig 4 top)")
	berkeley, err := datagen.Berkeley(cfg.seed)
	if err != nil {
		return err
	}
	rep, err := hypdb.Open(berkeley).Analyze(context.Background(), datagen.BerkeleyQuery(), analysisOpts(cfg)...)
	if err != nil {
		return err
	}
	fmt.Println(rep)
	row("(paper: SQL 0.30/0.46 diff 0.16 p<0.001; conditioned on Department the trend REVERSES, diff 0.05)")

	section("CancerData: the effect of lung cancer on car accidents (paper Fig 4 bottom)")
	cancer, err := datagen.Cancer(datagen.CancerRows, cfg.seed)
	if err != nil {
		return err
	}
	rep, err = hypdb.Open(cancer).Analyze(context.Background(), datagen.CancerQuery(), analysisOpts(cfg)...)
	if err != nil {
		return err
	}
	fmt.Println(rep)
	row("(paper: SQL 0.60/0.77 diff 0.17; total 0.61/0.76 diff 0.14; direct diff 0.004 insignificant;")
	row(" mediator responsibilities Fatigue 0.91, Attention_Disorder 0.09 — ground truth: no direct edge)")
	return nil
}

func runListing3(cfg runConfig) error {
	q := datagen.FlightQuery()
	fmt.Println("Original (Listing 1):")
	fmt.Println(q.SQL())
	fmt.Println()
	fmt.Println("Rewritten (Listing 2/3):")
	fmt.Println(q.RewrittenSQL([]string{"Airport", "Year", "DayofMonth", "Month"}))
	return nil
}

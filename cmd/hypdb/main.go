// Command hypdb detects, explains and removes bias in OLAP queries over CSV
// data — the interactive front end of the library.
//
// Usage:
//
//	hypdb analyze  -data file.csv -treatment T -outcomes Y1,Y2 [-groupby X1,X2] [-where "A=v1|v2;B=w"] [flags]
//	hypdb audit    -data file.csv [-treatments T1,T2] [-outcomes Y1] [-where ...] [-min-support N] [-top K] [flags]
//	hypdb detect   -data file.csv -treatment T -outcomes Y -covariates Z1,Z2 [...]
//	hypdb rewrite  -data file.csv -treatment T -outcomes Y -covariates Z1,Z2 [-mediators M1] [...]
//	hypdb generate -dataset flight|adult|berkeley|staples|cancer [-rows N] [-seed S] -out file.csv
//	hypdb datasets
//
// analyze asks "is THIS query biased?"; audit asks "which queries over this
// data are biased?" — it sweeps every eligible (treatment, outcome)
// attribute pair and prints the biased ones as a ranked table, sharing one
// covariate discovery per treatment across the whole sweep.
//
// The -where syntax is a conjunction of attribute filters separated by ';',
// each "Attr=v1|v2|v3" (any listed value matches). Interrupting a run
// (Ctrl-C) cancels the analysis context and exits promptly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"hypdb"
	"hypdb/internal/datagen"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// One cancellable context for the whole run: Ctrl-C aborts mid-flight
	// permutation loops and discovery searches.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var err error
	switch os.Args[1] {
	case "analyze":
		err = cmdAnalyze(ctx, os.Args[2:], false, false)
	case "audit":
		err = cmdAudit(ctx, os.Args[2:])
	case "detect":
		err = cmdAnalyze(ctx, os.Args[2:], true, false)
	case "rewrite":
		err = cmdAnalyze(ctx, os.Args[2:], false, true)
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "datasets":
		for _, g := range datagen.Generators() {
			fmt.Printf("%-10s %8d rows  %s\n", g.Name, g.DefaultRows, g.Description)
		}
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "hypdb: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "hypdb: interrupted")
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "hypdb: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  hypdb analyze  -data file.csv -treatment T -outcomes Y[,Y2] [-groupby X] [-where "A=v1|v2;B=w"] [-alpha 0.01] [-method hymit|chi2|mit|mit-sampling] [-seed N]
  hypdb audit    -data file.csv [-treatments T1,T2] [-outcomes Y1,Y2] [-where ...] [-min-support N] [-max-treatment-card N] [-top K] [-workers N] [-alpha] [-method] [-seed]
  hypdb detect   like analyze, but requires -covariates and only reports the bias verdict
  hypdb rewrite  like analyze, but uses the given -covariates/-mediators instead of discovery
  hypdb generate -dataset name [-rows N] [-seed N] -out file.csv
  hypdb datasets`)
}

func cmdAnalyze(ctx context.Context, args []string, detectOnly, rewriteOnly bool) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	data := fs.String("data", "", "CSV file to analyze (required)")
	treatment := fs.String("treatment", "", "treatment attribute T (required)")
	outcomes := fs.String("outcomes", "", "comma-separated outcome attributes (required)")
	groupby := fs.String("groupby", "", "comma-separated extra grouping attributes")
	where := fs.String("where", "", `WHERE filters: "Attr=v1|v2;Other=w"`)
	covariates := fs.String("covariates", "", "comma-separated covariates (skips discovery)")
	mediators := fs.String("mediators", "", "comma-separated mediators (skips discovery)")
	alpha := fs.Float64("alpha", 0, "significance level (default 0.01)")
	var method hypdb.TestMethod
	fs.TextVar(&method, "method", hypdb.HyMIT, "independence test: hymit, chi2, mit, mit-sampling")
	seed := fs.Int64("seed", 1, "random seed")
	perms := fs.Int("permutations", 0, "Monte-Carlo permutations (default 1000)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" || *treatment == "" || *outcomes == "" {
		return fmt.Errorf("-data, -treatment and -outcomes are required")
	}
	db, err := hypdb.OpenCSV(*data)
	if err != nil {
		return err
	}
	pred, err := parseWhere(*where)
	if err != nil {
		return err
	}
	q := hypdb.Query{
		Table:     *data,
		Treatment: *treatment,
		Outcomes:  splitList(*outcomes),
		Groupings: splitList(*groupby),
		Where:     pred,
	}
	opts := []hypdb.Option{
		hypdb.WithAlpha(*alpha),
		hypdb.WithSeed(*seed),
		hypdb.WithPermutations(*perms),
		hypdb.WithParallel(true),
		hypdb.WithMethod(method),
	}
	covs := splitList(*covariates)
	meds := splitList(*mediators)
	if len(covs) > 0 {
		opts = append(opts, hypdb.WithCovariates(covs...))
	}
	if len(meds) > 0 {
		opts = append(opts, hypdb.WithMediators(meds...))
	}
	if detectOnly && len(covs) == 0 {
		return fmt.Errorf("detect requires -covariates")
	}
	if rewriteOnly && len(covs) == 0 && len(meds) == 0 {
		return fmt.Errorf("rewrite requires -covariates and/or -mediators")
	}

	if detectOnly {
		view, err := q.View(ctx, db.Relation())
		if err != nil {
			return err
		}
		results, err := hypdb.OpenSource(view).DetectBias(ctx, q.Treatment, q.Groupings, covs, opts...)
		if err != nil {
			return err
		}
		for _, b := range results {
			tag := "UNBIASED"
			if b.Biased {
				tag = "BIASED"
			}
			cx := ""
			if len(b.Context) > 0 {
				cx = " [" + strings.Join(b.Context, ",") + "]"
			}
			fmt.Printf("context%s: I(T;V)=%.5f p=%.4f → %s\n", cx, b.MI, b.PValue, tag)
		}
		return nil
	}
	rep, err := db.Analyze(ctx, q, opts...)
	if err != nil {
		return err
	}
	return rep.WriteText(os.Stdout)
}

// cmdAudit sweeps the whole (treatment, outcome) query lattice of a CSV
// file and prints the biased queries as a ranked table.
func cmdAudit(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("audit", flag.ExitOnError)
	data := fs.String("data", "", "CSV file to audit (required)")
	treatments := fs.String("treatments", "", "comma-separated treatment candidates (default: every eligible attribute)")
	outcomes := fs.String("outcomes", "", "comma-separated outcome candidates (default: every numeric attribute)")
	where := fs.String("where", "", `audit population filter: "Attr=v1|v2;Other=w"`)
	minSupport := fs.Int("min-support", 0, "minimum rows per compared treatment group (default 50)")
	maxTreatCard := fs.Int("max-treatment-card", 0, "widest treatment attribute swept (default 10)")
	maxOutCard := fs.Int("max-outcome-card", 0, "widest outcome attribute swept (default 24)")
	topK := fs.Int("top", 0, "cap the ranked findings list (0 = all)")
	workers := fs.Int("workers", 0, "sweep worker pool size (default GOMAXPROCS)")
	alpha := fs.Float64("alpha", 0, "significance level (default 0.01)")
	var method hypdb.TestMethod
	fs.TextVar(&method, "method", hypdb.HyMIT, "independence test: hymit, chi2, mit, mit-sampling")
	seed := fs.Int64("seed", 1, "random seed")
	perms := fs.Int("permutations", 0, "Monte-Carlo permutations (default 1000)")
	explainPlan := fs.Bool("explain-plan", false, "after the sweep, dump the batch planner's cuboid plan")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("-data is required")
	}
	db, err := hypdb.OpenCSV(*data)
	if err != nil {
		return err
	}
	pred, err := parseWhere(*where)
	if err != nil {
		return err
	}
	opts := []hypdb.Option{
		hypdb.WithAlpha(*alpha),
		hypdb.WithSeed(*seed),
		hypdb.WithPermutations(*perms),
		hypdb.WithParallel(true),
		hypdb.WithMethod(method),
	}
	rep, err := db.Audit(ctx, hypdb.AuditSpec{
		Treatments:       splitList(*treatments),
		Outcomes:         splitList(*outcomes),
		Where:            pred,
		MinSupport:       *minSupport,
		MaxTreatmentCard: *maxTreatCard,
		MaxOutcomeCard:   *maxOutCard,
		TopK:             *topK,
		Workers:          *workers,
	}, opts...)
	if err != nil {
		return err
	}
	if err := rep.WriteText(os.Stdout); err != nil {
		return err
	}
	if *explainPlan {
		if p := db.LastPlan(); p != nil {
			fmt.Println()
			return p.WriteText(os.Stdout)
		}
		fmt.Println("\nno batch plan was executed (planner skipped or demand unplannable)")
	}
	return nil
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	name := fs.String("dataset", "", "dataset name (see `hypdb datasets`)")
	rows := fs.Int("rows", 0, "row count (0 = dataset default)")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("out", "", "output CSV path (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" || *out == "" {
		return fmt.Errorf("-dataset and -out are required")
	}
	gen, err := datagen.Lookup(*name)
	if err != nil {
		return err
	}
	n := *rows
	if n <= 0 {
		n = gen.DefaultRows
	}
	tab, err := gen.Generate(n, *seed)
	if err != nil {
		return err
	}
	if err := tab.WriteCSVFile(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %d rows × %d columns to %s\n", tab.NumRows(), tab.NumCols(), *out)
	return nil
}

// parseWhere parses "A=v1|v2;B=w" into a conjunction of In predicates.
func parseWhere(s string) (hypdb.Predicate, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var conj hypdb.And
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		attr, vals, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad -where clause %q (want Attr=v1|v2)", part)
		}
		values := strings.Split(vals, "|")
		for i := range values {
			values[i] = strings.TrimSpace(values[i])
		}
		conj = append(conj, hypdb.In{Attr: strings.TrimSpace(attr), Values: values})
	}
	if len(conj) == 0 {
		return nil, nil
	}
	return conj, nil
}

func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

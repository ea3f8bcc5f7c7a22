// Package hypdb detects, explains and removes bias in OLAP group-by
// queries, reproducing the system of "Bias in OLAP Queries: Detection,
// Explanation, and Removal" (Salimi, Gehrke, Suciu — SIGMOD 2018).
//
// The entry point is a session handle: Open (or OpenCSV) wraps a table in a
// concurrency-safe *DB whose methods accept a context.Context and share
// analysis state — covariate-discovery results are memoized across queries,
// so interactive workloads pay the dominant discovery cost once. Every
// operation (Run, RewriteTotal, RewriteDirect, DiscoverCovariates,
// DetectBias, EffectBounds, Audit) is a method of the handle. Analyze is
// the headline method: given a group-by-average query over a treatment
// attribute, it
//
//  1. discovers the treatment's covariates (parents in the underlying
//     causal DAG) directly from the data with the CD algorithm,
//  2. tests whether the query is balanced with respect to them (a biased
//     query compares incomparable groups),
//  3. explains any bias by ranking attributes by responsibility and ground
//     values by contribution, and
//  4. rewrites the query to estimate the total causal effect (adjustment
//     formula with exact matching) and the natural direct effect (mediator
//     formula).
//
// A minimal session:
//
//	db, _ := hypdb.OpenCSV("flights.csv")
//	report, err := db.Analyze(ctx, hypdb.Query{
//	    Treatment: "Carrier",
//	    Outcomes:  []string{"Delayed"},
//	    Where: hypdb.And{
//	        hypdb.In{Attr: "Carrier", Values: []string{"AA", "UA"}},
//	        hypdb.In{Attr: "Airport", Values: []string{"COS", "MFE", "MTJ", "ROC"}},
//	    },
//	}, hypdb.WithSeed(1), hypdb.WithParallel(true))
//	if err != nil { ... }
//	fmt.Println(report)
//
// Behavior is tuned with functional options, one per setting (WithMethod,
// WithAlpha, WithPermutations, WithExplanations, ...); the audit sweep's
// thresholds and pool size are AuditSpec fields. The zero configuration
// reproduces the paper's setup (HyMIT, α = 0.01, Miller-Madow estimation,
// 1000 permutations). Failures are classified by the package's sentinel
// errors (ErrUnknownAttribute, ErrNoOverlap, ...) via errors.Is, and
// cancelling the context aborts long-running discovery and permutation
// loops promptly with the context's error.
//
// Storage is pluggable: the engine consumes the narrow source.Relation
// contract (dictionary-coded group-by counts), with two shipped backends —
// source/mem over the in-memory columnar table, and source/sqldb over any
// database/sql driver with SELECT ... COUNT(*) ... GROUP BY pushdown. Open
// an in-memory session with Open/OpenCSV, a SQL-backed one with OpenSQL,
// or any custom backend with OpenSource; SQL-backed handles are released
// with Close. Analyses that genuinely need raw rows fail on counts-only
// backends with ErrNeedsMaterialization instead of degrading silently.
//
// Every handle serves its counts through one count cache. Sec 6 of the
// paper observes that contingency tables with their marginals are OLAP
// data cubes; the cache is that cube, materialized on demand: a primed
// attribute closure answers every subset by marginalization, and an
// AnalyzeAll batch primes one cuboid over the union of its closures.
// Beneath the facade sit independence testing (MIT, HyMIT, χ²),
// Markov-boundary discovery, causal-DAG utilities, and the dataset
// generators behind the paper's evaluation.
package hypdb

import (
	"io"

	"hypdb/internal/core"
	"hypdb/internal/dataset"
	"hypdb/internal/query"
	"hypdb/source"
)

// Table is an in-memory columnar table of categorical attributes.
type Table = dataset.Table

// Column is a dictionary-encoded categorical attribute.
type Column = dataset.Column

// Builder assembles a Table row by row.
type Builder = dataset.Builder

// Predicate filters rows (the WHERE clause).
type Predicate = dataset.Predicate

// Predicate combinators.
type (
	// In matches rows whose attribute takes one of the listed values.
	In = dataset.In
	// Eq matches rows with an exact attribute value.
	Eq = dataset.Eq
	// And is a conjunction of predicates.
	And = dataset.And
	// Or is a disjunction of predicates.
	Or = dataset.Or
	// Not negates a predicate.
	Not = dataset.Not
	// All matches every row.
	All = dataset.All
)

// AppendResult summarizes one streaming ingestion into an appendable
// relation: rows admitted, new total, new snapshot version, and a
// relation view over just the appended delta.
type AppendResult = source.AppendResult

// Query is the group-by-average OLAP query of the paper's Listing 1.
type Query = query.Query

// Answer is the result of executing a Query.
type Answer = query.Answer

// Row is one line of a query answer.
type Row = query.Row

// Comparison pairs two treatment values' answers within one context.
type Comparison = query.Comparison

// Rewritten is the answer of a bias-removing rewritten query.
type Rewritten = query.Rewritten

// Report is the full output of Analyze.
type Report = core.Report

// ComparisonReport pairs a query comparison with per-outcome significance.
type ComparisonReport = core.ComparisonReport

// Dropped names an attribute excluded from analysis for a logical
// dependency, with the reason.
type Dropped = core.Dropped

// TestMethod selects the conditional-independence test.
type TestMethod = core.TestMethod

// Test-method selectors for WithMethod.
const (
	HyMIT       = core.HyMITMethod
	ChiSquared  = core.ChiSquaredMethod
	MIT         = core.MITMethod
	MITSampling = core.MITSamplingMethod
)

// CDResult reports automatic covariate discovery.
type CDResult = core.CDResult

// BiasResult is a per-context balance verdict.
type BiasResult = core.BiasResult

// Responsibility is a coarse-grained explanation entry.
type Responsibility = core.Responsibility

// FineExplanation is a fine-grained explanation triple.
type FineExplanation = core.FineExplanation

// BoundsResult brackets a causal effect across candidate adjustment sets.
type BoundsResult = core.BoundsResult

// NewBuilder creates a table builder over the given schema.
func NewBuilder(columns ...string) *Builder { return dataset.NewBuilder(columns...) }

// ReadCSVFile loads a table from a CSV file (header row required; all
// values treated as categorical).
func ReadCSVFile(path string) (*Table, error) { return dataset.ReadCSVFile(path) }

// ReadCSV loads a table from CSV text on r (header row required; all
// values treated as categorical). Parse failures wrap ErrMalformedCSV.
func ReadCSV(r io.Reader) (*Table, error) { return dataset.ReadCSV(r) }

// ParsePredicate parses a SQL-style boolean expression — `Carrier IN
// ('AA','UA') AND NOT Airport = 'ROC'` — into a Predicate. It accepts
// everything the built-in combinators render via SQL(); syntax errors wrap
// ErrBadPredicate.
func ParsePredicate(s string) (Predicate, error) { return dataset.ParsePredicate(s) }

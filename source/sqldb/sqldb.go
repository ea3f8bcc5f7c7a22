// Package sqldb implements the SQL storage backend of HypDB: a
// source.Relation over any database/sql handle that pushes the engine's
// sufficient statistics down to the database as aggregate queries.
//
// Group-by counts — the single primitive everything in HypDB reduces to —
// are executed as
//
//	SELECT "a", "b", COUNT(*) FROM "t" [WHERE σ] GROUP BY "a", "b"
//
// so the data never leaves the database for counts-based analyses; only the
// (small) aggregate crosses the wire. Per-attribute dictionaries are loaded
// lazily with SELECT DISTINCT, sorted for determinism, with values that
// render to one label merged; an attribute's cardinality is its
// dictionary's length (source.Card), so the two always agree. Every count
// call is one query and every Restrict a fresh handle: memoizing results,
// deriving subset marginals from a cached superset, keeping one restricted
// view per predicate and slicing it out of a cached unrestricted view is
// the job of the session count cache (internal/countcache) above the backend. Since a restricted
// dictionary is the root's sorted labels that still occur, the package
// declares its kind to restrict in root order (source.RestrictsInRootOrder):
// the count cache derives a restricted view's dictionaries from the counts
// it holds too, and a view it can slice then sends no query at all.
//
// Predicates are rendered through their SQL() form (ANSI quoting: double
// quotes for identifiers, single quotes with ” escaping for literals).
// Restrict composes predicates into the WHERE clause of every query and
// rebuilds dictionaries under the restriction: the root's labels that
// occur under it, in the root's order.
//
// The backend also implements source.Materializer — row-level paths (the
// naive shuffle test, subsample key detection) fetch the selected rows once
// and proceed in memory — and source.Closer, releasing the *sql.DB when the
// root handle is closed. Wrap with source.CountsOnly to forbid
// materialization.
package sqldb

import (
	"context"
	"database/sql"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"hypdb/internal/dataset"
	"hypdb/internal/hyperr"
	"hypdb/source"
)

// Stats counts the backend's query traffic for one handle.
type Stats struct {
	// CountQueries is the number of GROUP BY count queries sent to the
	// database: one per Counts or (within budget) DenseCounts call.
	CountQueries int
	// DictQueries counts SELECT DISTINCT dictionary loads.
	DictQueries int
}

// Relation is a source.Relation backed by one table of a database/sql
// database. Create the root handle with Open; Restrict derives restricted
// handles sharing the same *sql.DB.
type Relation struct {
	db      *sql.DB
	table   string
	where   source.Predicate // handle-level restriction; nil at the root
	attrs   []string
	attrSet map[string]bool
	backend string
	owned   bool // the root handle closes the *sql.DB

	closeOnce sync.Once
	closeErr  error

	mu    sync.Mutex
	nrows int
	hasN  bool
	dicts map[string]*dict
	mat   *dataset.Table
	stats Stats
}

type dict struct {
	labels []string
	index  map[string]int32
}

// kind begins every handle's Backend() identity. Every dictionary is
// sorted and free of repeats, so a restricted handle's is the root's labels
// that occur under its predicate, in the root's order.
const kind = "sqldb"

func init() { source.DeclareRootOrder(kind) }

// Open probes the table's schema and returns the root relation handle. The
// handle takes ownership of db: closing the relation (directly or through
// hypdb's DB.Close) closes db. Close is safe to call more than once.
func Open(ctx context.Context, db *sql.DB, table string) (*Relation, error) {
	if table == "" {
		return nil, fmt.Errorf("sqldb: empty table name")
	}
	rows, err := db.QueryContext(ctx, "SELECT * FROM "+quoteIdent(table)+" WHERE 1=0")
	if err != nil {
		return nil, fmt.Errorf("sqldb: probing schema of %q: %w", table, err)
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		return nil, fmt.Errorf("sqldb: reading schema of %q: %w", table, err)
	}
	if err := rows.Err(); err != nil {
		return nil, fmt.Errorf("sqldb: probing schema of %q: %w", table, err)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("sqldb: table %q has no columns", table)
	}
	r := &Relation{
		db:      db,
		table:   table,
		attrs:   cols,
		attrSet: make(map[string]bool, len(cols)),
		backend: fmt.Sprintf("%s:%p:%s", kind, db, table),
		owned:   true,
		dicts:   make(map[string]*dict),
	}
	for _, c := range cols {
		if r.attrSet[c] {
			return nil, fmt.Errorf("sqldb: table %q has duplicate column %q", table, c)
		}
		r.attrSet[c] = true
	}
	return r, nil
}

// Name implements source.Relation.
func (r *Relation) Name() string { return r.table }

// Backend implements source.Relation: the database handle's address, the
// table name, and the restriction predicate — so two handles over different
// sources (or different WHERE views) can never collide in a shared cache.
func (r *Relation) Backend() string { return r.backend }

// Attributes implements source.Relation.
func (r *Relation) Attributes() []string { return append([]string(nil), r.attrs...) }

// HasAttribute implements source.Relation.
func (r *Relation) HasAttribute(name string) bool { return r.attrSet[name] }

// Stats returns a snapshot of the handle's query counters.
func (r *Relation) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Close releases the underlying *sql.DB. Only the root handle owns the
// database; Close on a Restrict-derived handle is a no-op. Double-Close is
// safe.
func (r *Relation) Close() error {
	r.closeOnce.Do(func() {
		if r.owned {
			r.closeErr = r.db.Close()
		}
	})
	return r.closeErr
}

// NumRows implements source.Relation.
func (r *Relation) NumRows(ctx context.Context) (int, error) {
	r.mu.Lock()
	if r.hasN {
		n := r.nrows
		r.mu.Unlock()
		return n, nil
	}
	r.mu.Unlock()

	q := "SELECT COUNT(*) FROM " + quoteIdent(r.table) + r.whereClause(nil)
	var n int
	if err := r.db.QueryRowContext(ctx, q).Scan(&n); err != nil {
		return 0, fmt.Errorf("sqldb: counting rows of %q: %w", r.table, err)
	}
	r.mu.Lock()
	r.nrows, r.hasN = n, true
	r.mu.Unlock()
	return n, nil
}

// Labels implements source.Relation. Dictionaries are loaded once per
// handle with SELECT DISTINCT under the handle's restriction and sorted
// lexicographically, so codes are deterministic for a given database state.
// Values that render to one label (the integer 1 and the text "1" in a
// dynamically typed column) share one code, so every code holds a count
// and the cardinality, the dictionary's length, counts each label once.
func (r *Relation) Labels(ctx context.Context, attr string) ([]string, error) {
	d, err := r.dictOf(ctx, attr)
	if err != nil {
		return nil, err
	}
	return d.labels, nil
}

func (r *Relation) dictOf(ctx context.Context, attr string) (*dict, error) {
	if !r.attrSet[attr] {
		return nil, fmt.Errorf("sqldb: table %q has no column %q: %w", r.table, attr, hyperr.ErrUnknownAttribute)
	}
	r.mu.Lock()
	if d, ok := r.dicts[attr]; ok {
		r.mu.Unlock()
		return d, nil
	}
	r.mu.Unlock()

	q := "SELECT DISTINCT " + quoteIdent(attr) + " FROM " + quoteIdent(r.table) + r.whereClause(nil)
	rows, err := r.db.QueryContext(ctx, q)
	if err != nil {
		return nil, fmt.Errorf("sqldb: loading dictionary of %q.%q: %w", r.table, attr, err)
	}
	defer rows.Close()
	var labels []string
	for rows.Next() {
		var v any
		if err := rows.Scan(&v); err != nil {
			return nil, fmt.Errorf("sqldb: scanning dictionary of %q.%q: %w", r.table, attr, err)
		}
		label, err := valueString(v)
		if err != nil {
			return nil, fmt.Errorf("sqldb: dictionary of %q.%q: %v", r.table, attr, err)
		}
		labels = append(labels, label)
	}
	if err := rows.Err(); err != nil {
		return nil, fmt.Errorf("sqldb: loading dictionary of %q.%q: %w", r.table, attr, err)
	}
	slices.Sort(labels)
	labels = slices.Compact(labels)
	d := &dict{labels: labels, index: make(map[string]int32, len(labels))}
	for i, l := range labels {
		d.index[l] = int32(i)
	}
	r.mu.Lock()
	if prev, ok := r.dicts[attr]; ok {
		d = prev // another goroutine won the race; keep one dictionary
	} else {
		r.dicts[attr] = d
		r.stats.DictQueries++
	}
	r.mu.Unlock()
	return d, nil
}

// Counts implements source.Relation: one pushed-down GROUP BY count query.
func (r *Relation) Counts(ctx context.Context, attrs []string, where source.Predicate) (map[source.Key]int, error) {
	dicts, err := r.dictsOf(ctx, attrs)
	if err != nil {
		return nil, err
	}
	out := make(map[source.Key]int)
	err = r.groupBy(ctx, attrs, dicts, where, func(codes []int32, n int) {
		out[dataset.EncodeKey(codes...)] += n
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DenseCounts implements source.DenseCounter: the rows of one GROUP BY
// count query are written straight into the flat mixed-radix cells. Returns
// (nil, nil) above the cell budget without querying.
func (r *Relation) DenseCounts(ctx context.Context, attrs []string, where source.Predicate, budget int) (*dataset.DenseCounts, error) {
	dicts, err := r.dictsOf(ctx, attrs)
	if err != nil {
		return nil, err
	}
	cards := make([]int, len(attrs))
	for i, d := range dicts {
		cards[i] = len(d.labels)
	}
	rows, err := r.NumRows(ctx)
	if err != nil {
		return nil, err
	}
	if _, ok := dataset.DenseSize(cards, dataset.EffectiveBudget(budget, rows)); !ok {
		return nil, nil
	}
	dc, err := dataset.NewDenseCounts(attrs, cards)
	if err != nil {
		return nil, err
	}
	err = r.groupBy(ctx, attrs, dicts, where, func(codes []int32, n int) {
		cell, stride := 0, 1
		for i, code := range codes {
			cell += stride * int(code)
			stride *= cards[i]
		}
		dc.Cells[cell] += n
		dc.Total += n
	})
	if err != nil {
		return nil, err
	}
	return dc, nil
}

// dictsOf returns the dictionary of every attribute, loading them before a
// count query so its result labels decode to stable codes.
func (r *Relation) dictsOf(ctx context.Context, attrs []string) ([]*dict, error) {
	dicts := make([]*dict, len(attrs))
	for i, a := range attrs {
		d, err := r.dictOf(ctx, a)
		if err != nil {
			return nil, err
		}
		dicts[i] = d
	}
	return dicts, nil
}

// groupBy sends one GROUP BY count query over attrs under where and calls fn
// with the dictionary codes and the count of every result row. fn must not
// retain codes.
func (r *Relation) groupBy(ctx context.Context, attrs []string, dicts []*dict, where source.Predicate, fn func(codes []int32, n int)) error {
	var q strings.Builder
	q.WriteString("SELECT ")
	for _, a := range attrs {
		q.WriteString(quoteIdent(a))
		q.WriteString(", ")
	}
	q.WriteString("COUNT(*) FROM ")
	q.WriteString(quoteIdent(r.table))
	q.WriteString(r.whereClause(where))
	if len(attrs) > 0 {
		q.WriteString(" GROUP BY ")
		for i, a := range attrs {
			if i > 0 {
				q.WriteString(", ")
			}
			q.WriteString(quoteIdent(a))
		}
	}
	rows, err := r.db.QueryContext(ctx, q.String())
	if err != nil {
		return fmt.Errorf("sqldb: count query on %q: %w", r.table, err)
	}
	defer rows.Close()

	vals := make([]any, len(attrs)+1)
	ptrs := make([]any, len(attrs)+1)
	for i := range vals {
		ptrs[i] = &vals[i]
	}
	codes := make([]int32, len(attrs))
	for rows.Next() {
		if err := rows.Scan(ptrs...); err != nil {
			return fmt.Errorf("sqldb: scanning counts of %q: %w", r.table, err)
		}
		for i := range attrs {
			label, err := valueString(vals[i])
			if err != nil {
				return fmt.Errorf("sqldb: counts of %q.%q: %v", r.table, attrs[i], err)
			}
			code, ok := dicts[i].index[label]
			if !ok {
				return fmt.Errorf("sqldb: value %q of %q.%q absent from its dictionary (database changed under the handle?)",
					label, r.table, attrs[i])
			}
			codes[i] = code
		}
		n, err := valueInt(vals[len(attrs)])
		if err != nil {
			return fmt.Errorf("sqldb: count column of %q: %w", r.table, err)
		}
		fn(codes, n)
	}
	if err := rows.Err(); err != nil {
		return fmt.Errorf("sqldb: count query on %q: %w", r.table, err)
	}
	r.mu.Lock()
	r.stats.CountQueries++
	r.mu.Unlock()
	return nil
}

// Restrict implements source.Relation: it derives a handle whose every
// query carries the composed WHERE clause and whose dictionaries are
// rebuilt (compacted) under the restriction. Derived handles share the
// *sql.DB. Each call derives a fresh handle, which loads its own
// dictionaries: sessions reach the backend through the count cache
// (internal/countcache), which keeps one restricted view per canonical
// predicate, so the phases of one analysis that restrict by the same WHERE
// clause share one handle. The count cache slices that view's counts and
// row count out of a cached unrestricted view when one covers them, and
// derives its dictionaries from the same view (source.RestrictsInRootOrder); the
// handle then sends its SELECT DISTINCT, GROUP BY and COUNT(*) queries only
// when no cover is cached.
func (r *Relation) Restrict(ctx context.Context, where source.Predicate) (source.Relation, error) {
	if where == nil {
		return r, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	composed := where
	if r.where != nil {
		composed = dataset.And{r.where, where}
	}
	return &Relation{
		db:      r.db,
		table:   r.table,
		where:   composed,
		attrs:   r.attrs,
		attrSet: r.attrSet,
		backend: fmt.Sprintf("%s:%p:%s|σ:%s", kind, r.db, r.table, renderPredicate(composed)),
		dicts:   make(map[string]*dict),
	}, nil
}

// Materialize implements source.Materializer: it fetches the restricted
// rows once and rebuilds them as an in-memory table whose dictionaries are
// the handle's own (sorted) dictionaries. The table is cached.
func (r *Relation) Materialize(ctx context.Context) (*dataset.Table, error) {
	r.mu.Lock()
	if r.mat != nil {
		t := r.mat
		r.mu.Unlock()
		return t, nil
	}
	r.mu.Unlock()

	dicts := make([]*dict, len(r.attrs))
	for i, a := range r.attrs {
		d, err := r.dictOf(ctx, a)
		if err != nil {
			return nil, err
		}
		dicts[i] = d
	}
	var q strings.Builder
	q.WriteString("SELECT ")
	for i, a := range r.attrs {
		if i > 0 {
			q.WriteString(", ")
		}
		q.WriteString(quoteIdent(a))
	}
	q.WriteString(" FROM ")
	q.WriteString(quoteIdent(r.table))
	q.WriteString(r.whereClause(nil))
	rows, err := r.db.QueryContext(ctx, q.String())
	if err != nil {
		return nil, fmt.Errorf("sqldb: materializing %q: %w", r.table, err)
	}
	defer rows.Close()

	codes := make([][]int32, len(r.attrs))
	vals := make([]any, len(r.attrs))
	ptrs := make([]any, len(r.attrs))
	for i := range vals {
		ptrs[i] = &vals[i]
	}
	for rows.Next() {
		if err := rows.Scan(ptrs...); err != nil {
			return nil, fmt.Errorf("sqldb: scanning rows of %q: %w", r.table, err)
		}
		for i := range r.attrs {
			label, err := valueString(vals[i])
			if err != nil {
				return nil, fmt.Errorf("sqldb: rows of %q.%q: %v", r.table, r.attrs[i], err)
			}
			code, ok := dicts[i].index[label]
			if !ok {
				return nil, fmt.Errorf("sqldb: value %q of %q.%q absent from its dictionary (database changed under the handle?)",
					label, r.table, r.attrs[i])
			}
			codes[i] = append(codes[i], code)
		}
	}
	if err := rows.Err(); err != nil {
		return nil, fmt.Errorf("sqldb: materializing %q: %w", r.table, err)
	}

	cols := make([]*dataset.Column, len(r.attrs))
	for i, a := range r.attrs {
		col, err := dataset.NewColumnFromCodes(a, codes[i], dicts[i].labels)
		if err != nil {
			return nil, fmt.Errorf("sqldb: materializing %q: %v", r.table, err)
		}
		cols[i] = col
	}
	t, err := dataset.New(cols...)
	if err != nil {
		return nil, fmt.Errorf("sqldb: materializing %q: %v", r.table, err)
	}
	r.mu.Lock()
	r.mat = t
	r.mu.Unlock()
	return t, nil
}

// whereClause renders the handle restriction conjoined with extra as a
// " WHERE ..." clause, or "" when unrestricted.
func (r *Relation) whereClause(extra source.Predicate) string {
	pred := r.where
	switch {
	case pred == nil:
		pred = extra
	case extra != nil:
		pred = dataset.And{pred, extra}
	}
	if pred == nil {
		return ""
	}
	s := renderPredicate(pred)
	if s == "TRUE" {
		return ""
	}
	return " WHERE " + s
}

// renderPredicate renders the built-in combinators with ANSI-quoted
// identifiers — matching the quoting of the SELECT and GROUP BY lists, so
// case-folding databases resolve the same column everywhere. Unknown
// predicate implementations fall back to their own SQL() rendering.
func renderPredicate(p source.Predicate) string {
	switch v := p.(type) {
	case dataset.In:
		if len(v.Values) == 0 {
			return "FALSE"
		}
		quoted := make([]string, len(v.Values))
		for i, val := range v.Values {
			quoted[i] = quoteString(val)
		}
		return quoteIdent(v.Attr) + " IN (" + strings.Join(quoted, ",") + ")"
	case dataset.Eq:
		return quoteIdent(v.Attr) + " = " + quoteString(v.Value)
	case dataset.And:
		if len(v) == 0 {
			return "TRUE"
		}
		parts := make([]string, len(v))
		for i, child := range v {
			s := renderPredicate(child)
			if or, ok := child.(dataset.Or); ok && len(or) > 0 {
				s = "(" + s + ")"
			}
			parts[i] = s
		}
		return strings.Join(parts, " AND ")
	case dataset.Or:
		if len(v) == 0 {
			return "FALSE"
		}
		parts := make([]string, len(v))
		for i, child := range v {
			parts[i] = "(" + renderPredicate(child) + ")"
		}
		return strings.Join(parts, " OR ")
	case dataset.Not:
		return "NOT (" + renderPredicate(v.Pred) + ")"
	case dataset.All:
		return "TRUE"
	default:
		return p.SQL()
	}
}

// quoteString renders a value literal with ” escaping.
func quoteString(v string) string {
	return "'" + strings.ReplaceAll(v, "'", "''") + "'"
}

// quoteIdent renders an identifier with ANSI double quotes.
func quoteIdent(name string) string {
	return `"` + strings.ReplaceAll(name, `"`, `""`) + `"`
}

// valueString normalizes a driver value to its label string. SQL NULL is
// rejected rather than folded into the empty string: the engine's
// categorical model has no NULL, and a silent "" alias would both inflate
// dictionaries (NULL next to a real empty string) and break predicate
// round-trips (col = ” never re-selects NULL rows).
func valueString(v any) (string, error) {
	switch x := v.(type) {
	case nil:
		return "", fmt.Errorf("NULL value (coalesce NULLs in the table or view before opening it)")
	case string:
		return x, nil
	case []byte:
		return string(x), nil
	default:
		return fmt.Sprint(x), nil
	}
}

// valueInt normalizes a driver count value. A count sent as text must be
// a whole decimal integer: "12.5", "1e3" or "12abc" is an error, not 12, 1
// or 12.
func valueInt(v any) (int, error) {
	switch x := v.(type) {
	case int64:
		return int(x), nil
	case int:
		return x, nil
	case []byte:
		return strconv.Atoi(string(x))
	case string:
		return strconv.Atoi(x)
	default:
		return 0, fmt.Errorf("unsupported count type %T", v)
	}
}

var (
	_ source.Relation     = (*Relation)(nil)
	_ source.Materializer = (*Relation)(nil)
	_ source.Closer       = (*Relation)(nil)
	_ source.DenseCounter = (*Relation)(nil)
)

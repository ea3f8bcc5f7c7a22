// Package memsql is an in-process database/sql driver serving registered
// in-memory dataset.Tables. It exists so the source/sqldb backend — and any
// test, benchmark or example that wants a SQL-speaking HypDB — can run
// against a real database/sql stack without an external DBMS or a cgo
// dependency.
//
// The driver implements exactly the closed SQL dialect the sqldb backend
// renders (ANSI double-quoted identifiers, single-quoted string literals):
//
//	SELECT * FROM t WHERE 1=0                          -- schema probe
//	SELECT COUNT(*) FROM t [WHERE p]                   -- row count
//	SELECT COUNT(DISTINCT c) FROM t [WHERE p]          -- cardinality
//	SELECT DISTINCT c FROM t [WHERE p]                 -- dictionary load
//	SELECT c1, ..., ck, COUNT(*) FROM t [WHERE p]
//	    GROUP BY c1, ..., ck                           -- group-by counts
//	SELECT c1, ..., ck FROM t [WHERE p]                -- materialization
//
// WHERE expressions are parsed with dataset.ParsePredicate, which accepts
// everything the predicate combinators render. Anything outside this shape
// is rejected with an error naming the query, which keeps the driver honest
// as the backend evolves.
package memsql

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"fmt"
	"io"
	"strings"
	"sync"

	"hypdb/internal/dataset"
)

// DriverName is the name registered with database/sql.
const DriverName = "memsql"

var (
	regMu  sync.RWMutex
	tables = make(map[string]*dataset.Table)
)

// Stats counts the statements the driver has executed, by class — the
// instrumentation behind the regression tests that pin how many GROUP BY
// round trips one analysis is allowed to issue (the one-query-per-closure
// pushdown must not silently decay back into N queries per hill climb).
type Stats struct {
	// Probes counts schema probes (SELECT * … WHERE 1=0).
	Probes int64
	// RowCounts counts SELECT COUNT(*) aggregates.
	RowCounts int64
	// Cardinalities counts SELECT COUNT(DISTINCT …) aggregates.
	Cardinalities int64
	// Dicts counts SELECT DISTINCT dictionary loads.
	Dicts int64
	// GroupBys counts GROUP BY count queries — the engine's sufficient-
	// statistic workhorse.
	GroupBys int64
	// RowSelects counts plain projections (materialization).
	RowSelects int64
}

var (
	statsMu sync.Mutex
	stats   Stats
)

func bump(f func(*Stats)) {
	statsMu.Lock()
	f(&stats)
	statsMu.Unlock()
}

// SnapshotStats returns the counters accumulated since the last ResetStats.
// The registry is process-global, so concurrent tests touching memsql
// should not assert exact totals unless they own the process.
func SnapshotStats() Stats {
	statsMu.Lock()
	defer statsMu.Unlock()
	return stats
}

// ResetStats zeroes the statement counters.
func ResetStats() {
	statsMu.Lock()
	stats = Stats{}
	statsMu.Unlock()
}

func init() { sql.Register(DriverName, drv{}) }

// Register makes t queryable as table name through any memsql connection.
// Re-registering a name replaces the previous table; the table must not be
// mutated afterwards.
func Register(name string, t *dataset.Table) {
	regMu.Lock()
	defer regMu.Unlock()
	tables[name] = t
}

// Unregister removes a registered table.
func Unregister(name string) {
	regMu.Lock()
	defer regMu.Unlock()
	delete(tables, name)
}

// Open returns a database handle on the shared registry. The DSN is
// currently unused; pass the dataset name or "" — it is accepted either
// way so DSN-driven configuration keeps working if namespacing is added.
func Open(dsn string) (*sql.DB, error) { return sql.Open(DriverName, dsn) }

func lookup(name string) (*dataset.Table, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	t, ok := tables[name]
	if !ok {
		return nil, fmt.Errorf("memsql: no registered table %q", name)
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// driver plumbing

type drv struct{}

func (drv) Open(string) (driver.Conn, error) { return conn{}, nil }

type conn struct{}

func (conn) Prepare(query string) (driver.Stmt, error) { return stmt{query: query}, nil }
func (conn) Close() error                              { return nil }
func (conn) Begin() (driver.Tx, error) {
	return nil, fmt.Errorf("memsql: transactions are not supported")
}

// QueryContext implements driver.QueryerContext, the fast path database/sql
// prefers over Prepare.
func (conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	if len(args) > 0 {
		return nil, fmt.Errorf("memsql: placeholder arguments are not supported")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return run(query)
}

type stmt struct{ query string }

func (s stmt) Close() error  { return nil }
func (s stmt) NumInput() int { return 0 }
func (s stmt) Exec([]driver.Value) (driver.Result, error) {
	return nil, fmt.Errorf("memsql: Exec is not supported")
}
func (s stmt) Query(args []driver.Value) (driver.Rows, error) {
	if len(args) > 0 {
		return nil, fmt.Errorf("memsql: placeholder arguments are not supported")
	}
	return run(s.query)
}

// rows is a fully materialized result set.
type rows struct {
	cols []string
	data [][]driver.Value
	pos  int
}

func (r *rows) Columns() []string { return r.cols }
func (r *rows) Close() error      { return nil }
func (r *rows) Next(dest []driver.Value) error {
	if r.pos >= len(r.data) {
		return io.EOF
	}
	copy(dest, r.data[r.pos])
	r.pos++
	return nil
}

// ---------------------------------------------------------------------------
// the dialect

// run parses and executes one query.
func run(query string) (driver.Rows, error) {
	q := normalizeSpace(query)
	const selectKw = "SELECT "
	if !strings.HasPrefix(strings.ToUpper(q[:min(len(q), len(selectKw))]), selectKw) {
		return nil, fmt.Errorf("memsql: unsupported statement %q", query)
	}
	rest := q[len(selectKw):]

	fromAt := indexKeyword(rest, "FROM")
	if fromAt < 0 {
		return nil, fmt.Errorf("memsql: missing FROM in %q", query)
	}
	selectList := strings.TrimSpace(rest[:fromAt])
	rest = strings.TrimSpace(rest[fromAt+len("FROM"):])

	var whereText, groupText string
	if at := indexKeyword(rest, "GROUP BY"); at >= 0 {
		groupText = strings.TrimSpace(rest[at+len("GROUP BY"):])
		rest = strings.TrimSpace(rest[:at])
	}
	if at := indexKeyword(rest, "WHERE"); at >= 0 {
		whereText = strings.TrimSpace(rest[at+len("WHERE"):])
		rest = strings.TrimSpace(rest[:at])
	}
	tableName, err := unquoteIdent(strings.TrimSpace(rest))
	if err != nil {
		return nil, fmt.Errorf("memsql: bad table name in %q: %v", query, err)
	}
	t, err := lookup(tableName)
	if err != nil {
		return nil, err
	}

	// Schema probe: SELECT * ... WHERE 1=0.
	if selectList == "*" {
		if whereText != "1=0" {
			return nil, fmt.Errorf("memsql: SELECT * is only supported with WHERE 1=0 (schema probe), got %q", query)
		}
		bump(func(s *Stats) { s.Probes++ })
		return &rows{cols: t.Columns()}, nil
	}

	var pred dataset.Predicate
	if whereText != "" && whereText != "1=0" {
		pred, err = dataset.ParsePredicate(whereText)
		if err != nil {
			return nil, fmt.Errorf("memsql: parsing WHERE of %q: %w", query, err)
		}
	}
	noRows := whereText == "1=0"

	// SELECT COUNT(*) FROM ...
	if strings.EqualFold(selectList, "COUNT(*)") {
		bump(func(s *Stats) { s.RowCounts++ })
		n := 0
		if !noRows {
			dc, err := t.Tabulate(pred, 0)
			if err != nil {
				return nil, err
			}
			n = dc.Total
		}
		return &rows{cols: []string{"count"}, data: [][]driver.Value{{int64(n)}}}, nil
	}

	// SELECT COUNT(DISTINCT col) FROM ...
	if up := strings.ToUpper(selectList); strings.HasPrefix(up, "COUNT(DISTINCT ") && strings.HasSuffix(selectList, ")") {
		col, err := unquoteIdent(strings.TrimSpace(selectList[len("COUNT(DISTINCT ") : len(selectList)-1]))
		if err != nil {
			return nil, fmt.Errorf("memsql: bad COUNT(DISTINCT) column in %q: %v", query, err)
		}
		bump(func(s *Stats) { s.Cardinalities++ })
		n := 0
		if !noRows {
			dc, err := t.Tabulate(pred, 0, col)
			if err != nil {
				return nil, err
			}
			n = dc.NonZero()
		}
		return &rows{cols: []string{"count"}, data: [][]driver.Value{{int64(n)}}}, nil
	}

	// SELECT DISTINCT col FROM ...
	if up := strings.ToUpper(selectList); strings.HasPrefix(up, "DISTINCT ") {
		col, err := unquoteIdent(strings.TrimSpace(selectList[len("DISTINCT "):]))
		if err != nil {
			return nil, fmt.Errorf("memsql: bad DISTINCT column in %q: %v", query, err)
		}
		bump(func(s *Stats) { s.Dicts++ })
		out := &rows{cols: []string{col}}
		if !noRows {
			dc, err := t.Tabulate(pred, 0, col)
			if err != nil {
				return nil, err
			}
			c := t.MustColumn(col)
			dc.EachCell(func(codes []int32, _ int) {
				out.data = append(out.data, []driver.Value{c.Label(codes[0])})
			})
		}
		return out, nil
	}

	// Remaining shapes: a plain column list, optionally ending in COUNT(*)
	// with a GROUP BY.
	parts := strings.Split(selectList, ",")
	hasCount := false
	if last := strings.TrimSpace(parts[len(parts)-1]); strings.EqualFold(last, "COUNT(*)") {
		hasCount = true
		parts = parts[:len(parts)-1]
	}
	cols := make([]string, len(parts))
	for i, p := range parts {
		cols[i], err = unquoteIdent(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("memsql: bad select column in %q: %v", query, err)
		}
	}

	if hasCount {
		if groupText == "" {
			return nil, fmt.Errorf("memsql: COUNT(*) needs GROUP BY in %q", query)
		}
		groupCols := strings.Split(groupText, ",")
		if len(groupCols) != len(cols) {
			return nil, fmt.Errorf("memsql: GROUP BY list must match the select list in %q", query)
		}
		for i, g := range groupCols {
			name, err := unquoteIdent(strings.TrimSpace(g))
			if err != nil || name != cols[i] {
				return nil, fmt.Errorf("memsql: GROUP BY list must match the select list in %q", query)
			}
		}
		bump(func(s *Stats) { s.GroupBys++ })
		out := &rows{cols: append(append([]string(nil), cols...), "count")}
		if !noRows {
			dc, err := t.Tabulate(pred, 0, cols...)
			if err != nil {
				return nil, err
			}
			decoders := make([]*dataset.Column, len(cols))
			for i, c := range cols {
				decoders[i] = t.MustColumn(c)
			}
			dc.EachCell(func(codes []int32, n int) {
				row := make([]driver.Value, 0, len(cols)+1)
				for i, d := range decoders {
					row = append(row, d.Label(codes[i]))
				}
				out.data = append(out.data, append(row, int64(n)))
			})
		}
		return out, nil
	}

	if groupText != "" {
		return nil, fmt.Errorf("memsql: GROUP BY without COUNT(*) in %q", query)
	}

	// Plain projection, preserving row order.
	bump(func(s *Stats) { s.RowSelects++ })
	out := &rows{cols: cols}
	if noRows {
		return out, nil
	}
	decoders := make([]*dataset.Column, len(cols))
	for i, c := range cols {
		decoders[i], err = t.Column(c)
		if err != nil {
			return nil, err
		}
	}
	match := []bool(nil)
	if pred != nil {
		match, err = pred.Eval(t)
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < t.NumRows(); i++ {
		if match != nil && !match[i] {
			continue
		}
		row := make([]driver.Value, len(cols))
		for j := range cols {
			row[j] = decoders[j].Value(i)
		}
		out.data = append(out.data, row)
	}
	return out, nil
}

// normalizeSpace collapses runs of whitespace into single spaces outside
// single- or double-quoted regions, so string literals keep their exact
// bytes while the parser sees a canonical statement shape.
func normalizeSpace(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	inSingle, inDouble, pendingSpace := false, false, false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !inSingle && !inDouble {
			switch c {
			case ' ', '\t', '\n', '\r':
				if b.Len() > 0 {
					pendingSpace = true
				}
				continue
			}
		}
		if pendingSpace {
			b.WriteByte(' ')
			pendingSpace = false
		}
		switch c {
		case '\'':
			if !inDouble {
				inSingle = !inSingle
			}
		case '"':
			if !inSingle {
				inDouble = !inDouble
			}
		}
		b.WriteByte(c)
	}
	return b.String()
}

// indexKeyword finds the first occurrence of keyword (case-insensitive,
// surrounded by spaces or string boundaries) outside single- or
// double-quoted regions. Returns -1 when absent.
func indexKeyword(s, keyword string) int {
	upper := strings.ToUpper(s)
	kw := strings.ToUpper(keyword)
	inSingle, inDouble := false, false
	for i := 0; i+len(kw) <= len(s); i++ {
		switch s[i] {
		case '\'':
			if !inDouble {
				inSingle = !inSingle
			}
			continue
		case '"':
			if !inSingle {
				inDouble = !inDouble
			}
			continue
		}
		if inSingle || inDouble {
			continue
		}
		if upper[i:i+len(kw)] == kw {
			before := i == 0 || s[i-1] == ' '
			after := i+len(kw) == len(s) || s[i+len(kw)] == ' '
			if before && after {
				return i
			}
		}
	}
	return -1
}

// unquoteIdent strips ANSI double quotes (with "" escaping) off an
// identifier, accepting bare identifiers as-is.
func unquoteIdent(s string) (string, error) {
	if s == "" {
		return "", fmt.Errorf("empty identifier")
	}
	if s[0] != '"' {
		if strings.ContainsAny(s, `"' `) {
			return "", fmt.Errorf("malformed identifier %q", s)
		}
		return s, nil
	}
	if len(s) < 2 || s[len(s)-1] != '"' {
		return "", fmt.Errorf("unterminated quoted identifier %q", s)
	}
	return strings.ReplaceAll(s[1:len(s)-1], `""`, `"`), nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

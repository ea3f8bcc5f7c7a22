package sqldb_test

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"hypdb/source"
	"hypdb/source/sqldb"
)

// mixedDB is a one-column table "t"."A" in a dynamically typed database:
// its values keep their driver types, so the integer 1 and the text "1"
// are distinct to DISTINCT, COUNT(DISTINCT) and GROUP BY. It answers the
// queries the relation below may send and nothing else.
type mixedDB struct{ vals []driver.Value }

var errUnsupported = errors.New("mixedDB: unsupported")

func (m mixedDB) Connect(context.Context) (driver.Conn, error) { return m, nil }
func (m mixedDB) Driver() driver.Driver                        { return m }
func (m mixedDB) Open(string) (driver.Conn, error)             { return m, nil }
func (m mixedDB) Prepare(string) (driver.Stmt, error)          { return nil, errUnsupported }
func (m mixedDB) Close() error                                 { return nil }
func (m mixedDB) Begin() (driver.Tx, error)                    { return nil, errUnsupported }

func (m mixedDB) QueryContext(_ context.Context, query string, _ []driver.NamedValue) (driver.Rows, error) {
	var groups []driver.Value
	counts := map[driver.Value]int64{}
	for _, v := range m.vals {
		if counts[v] == 0 {
			groups = append(groups, v)
		}
		counts[v]++
	}
	rows := &fakeRows{}
	switch query {
	case `SELECT * FROM "t" WHERE 1=0`:
		rows.cols = []string{"A"}
	case `SELECT COUNT(*) FROM "t"`:
		rows.cols = []string{"n"}
		rows.rows = [][]driver.Value{{int64(len(m.vals))}}
	case `SELECT COUNT(DISTINCT "A") FROM "t"`:
		rows.cols = []string{"n"}
		rows.rows = [][]driver.Value{{int64(len(groups))}}
	case `SELECT DISTINCT "A" FROM "t"`:
		rows.cols = []string{"A"}
		for _, v := range groups {
			rows.rows = append(rows.rows, []driver.Value{v})
		}
	case `SELECT "A", COUNT(*) FROM "t" GROUP BY "A"`:
		rows.cols = []string{"A", "n"}
		for _, v := range groups {
			rows.rows = append(rows.rows, []driver.Value{v, counts[v]})
		}
	default:
		return nil, fmt.Errorf("mixedDB: unexpected query %q", query)
	}
	return rows, nil
}

type fakeRows struct {
	cols []string
	rows [][]driver.Value
}

func (r *fakeRows) Columns() []string { return r.cols }
func (r *fakeRows) Close() error      { return nil }

func (r *fakeRows) Next(dest []driver.Value) error {
	if len(r.rows) == 0 {
		return io.EOF
	}
	copy(dest, r.rows[0])
	r.rows = r.rows[1:]
	return nil
}

// TestDictionaryMergesLabelsThatRenderAlike: a column holding both the
// integer 1 and the text "1" has one label "1", whose code counts the rows
// of both, and a cardinality of 2 whether or not the dictionary is loaded
// first (the database's own distinct count is 3). A repeated label would
// leave one code without a count and inflate the cardinality, and with it
// a χ² test's degrees of freedom.
func TestDictionaryMergesLabelsThatRenderAlike(t *testing.T) {
	ctx := context.Background()
	db := sql.OpenDB(mixedDB{vals: []driver.Value{int64(1), "1", int64(1), "2", "1", int64(1)}})
	rel, err := sqldb.Open(ctx, db, "t")
	if err != nil {
		t.Fatal(err)
	}
	defer rel.Close()

	if card, err := source.Card(ctx, rel, "A"); err != nil || card != 2 {
		t.Errorf("Card before Labels = %d, %v, want 2", card, err)
	}
	labels, err := rel.Labels(ctx, "A")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"1", "2"}; !reflect.DeepEqual(labels, want) {
		t.Fatalf("Labels = %q, want %q", labels, want)
	}
	dc, err := rel.DenseCounts(ctx, []string{"A"}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dc.Cards, []int{2}) || !reflect.DeepEqual(dc.Cells, []int{5, 1}) || dc.Total != 6 {
		t.Errorf("DenseCounts = cards %v cells %v total %d, want [2] [5 1] 6", dc.Cards, dc.Cells, dc.Total)
	}
	counts, err := rel.Counts(ctx, []string{"A"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(counts, dc.Map()) {
		t.Errorf("Counts = %v, want %v", counts, dc.Map())
	}
	if card, err := source.Card(ctx, rel, "A"); err != nil || card != 2 {
		t.Errorf("Card after Labels = %d, %v, want 2", card, err)
	}
}

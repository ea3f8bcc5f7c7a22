package dataset

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// mustNew is New for columns whose shapes are correct by construction.
func mustNew(cols ...*Column) *Table {
	t, err := New(cols...)
	if err != nil {
		panic(err)
	}
	return t
}

// codeOf looks val up in c's label index, built on first use: its code, or
// -1 when val is not in the dictionary.
func codeOf(c *Column, val string) int32 {
	if code, ok := c.labelIndex()[val]; ok {
		return code
	}
	return -1
}

func sampleTable(t *testing.T) *Table {
	t.Helper()
	b := NewBuilder("carrier", "airport", "delayed")
	rows := [][]string{
		{"AA", "COS", "0"},
		{"AA", "MFE", "0"},
		{"AA", "COS", "1"},
		{"UA", "ROC", "1"},
		{"UA", "ROC", "0"},
		{"UA", "COS", "1"},
	}
	for _, r := range rows {
		b.MustAdd(r...)
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatalf("Table: %v", err)
	}
	return tab
}

func TestColumnDictionaryEncoding(t *testing.T) {
	c := NewColumnFromStrings("x", []string{"a", "b", "a", "c", "b"})
	if got := c.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5", got)
	}
	if got := c.Card(); got != 3 {
		t.Fatalf("Card = %d, want 3", got)
	}
	if c.Code(0) != c.Code(2) {
		t.Errorf("same label got different codes: %d vs %d", c.Code(0), c.Code(2))
	}
	if c.Code(0) == c.Code(1) {
		t.Errorf("different labels got same code %d", c.Code(0))
	}
	for i, want := range []string{"a", "b", "a", "c", "b"} {
		if got := c.Value(i); got != want {
			t.Errorf("Value(%d) = %q, want %q", i, got, want)
		}
	}
	if got := codeOf(c, "missing"); got != -1 {
		t.Errorf("CodeOf(missing) = %d, want -1", got)
	}
}

func TestNewColumnFromCodesValidation(t *testing.T) {
	if _, err := NewColumnFromCodes("x", []int32{0, 5}, []string{"a", "b"}); err == nil {
		t.Error("out-of-range code accepted")
	}
	if _, err := NewColumnFromCodes("x", []int32{0}, []string{"a", "a"}); err == nil {
		t.Error("duplicate labels accepted")
	}
	c, err := NewColumnFromCodes("x", []int32{1, 0}, []string{"a", "b"})
	if err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
	if c.Value(0) != "b" || c.Value(1) != "a" {
		t.Errorf("decoded values %q,%q want b,a", c.Value(0), c.Value(1))
	}
}

func TestNewRejectsRaggedAndDuplicate(t *testing.T) {
	a := NewColumnFromStrings("a", []string{"1", "2"})
	short := NewColumnFromStrings("b", []string{"1"})
	if _, err := New(a, short); err == nil {
		t.Error("ragged columns accepted")
	}
	a2 := NewColumnFromStrings("a", []string{"3", "4"})
	if _, err := New(a, a2); err == nil {
		t.Error("duplicate column name accepted")
	}
	if _, err := New(); err == nil {
		t.Error("empty table accepted")
	}
}

func TestSelectIn(t *testing.T) {
	tab := sampleTable(t)
	got, err := tab.Select(In{Attr: "carrier", Values: []string{"AA"}})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if got.NumRows() != 3 {
		t.Fatalf("NumRows = %d, want 3", got.NumRows())
	}
	c := got.MustColumn("carrier")
	for i := 0; i < got.NumRows(); i++ {
		if c.Value(i) != "AA" {
			t.Errorf("row %d carrier = %q, want AA", i, c.Value(i))
		}
	}
	// Dictionary must be compacted: only AA remains.
	if c.Card() != 1 {
		t.Errorf("carrier Card after select = %d, want 1", c.Card())
	}
}

func TestSelectAndOrNot(t *testing.T) {
	tab := sampleTable(t)
	got, err := tab.Select(And{
		In{Attr: "carrier", Values: []string{"UA"}},
		Eq{Attr: "delayed", Value: "1"},
	})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if got.NumRows() != 2 {
		t.Errorf("AND rows = %d, want 2", got.NumRows())
	}

	got, err = tab.Select(Or{
		Eq{Attr: "airport", Value: "MFE"},
		Eq{Attr: "airport", Value: "ROC"},
	})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if got.NumRows() != 3 {
		t.Errorf("OR rows = %d, want 3", got.NumRows())
	}

	got, err = tab.Select(Not{Eq{Attr: "carrier", Value: "AA"}})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if got.NumRows() != 3 {
		t.Errorf("NOT rows = %d, want 3", got.NumRows())
	}

	got, err = tab.Select(All{})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if got.NumRows() != tab.NumRows() {
		t.Errorf("All rows = %d, want %d", got.NumRows(), tab.NumRows())
	}
}

func TestSelectMissingValueMatchesNothing(t *testing.T) {
	tab := sampleTable(t)
	got, err := tab.Select(Eq{Attr: "carrier", Value: "DL"})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if got.NumRows() != 0 {
		t.Errorf("rows = %d, want 0", got.NumRows())
	}
}

func TestSelectMissingColumnErrors(t *testing.T) {
	tab := sampleTable(t)
	if _, err := tab.Select(Eq{Attr: "nope", Value: "x"}); err == nil {
		t.Error("missing column accepted")
	}
}

func TestPredicateSQL(t *testing.T) {
	cases := []struct {
		pred Predicate
		want string
	}{
		{In{Attr: "a", Values: []string{"x", "y"}}, "a IN ('x','y')"},
		{Eq{Attr: "a", Value: "x"}, "a = 'x'"},
		{And{Eq{Attr: "a", Value: "x"}, Eq{Attr: "b", Value: "y"}}, "a = 'x' AND b = 'y'"},
		{And{}, "TRUE"},
		{Or{}, "FALSE"},
		{Not{Eq{Attr: "a", Value: "x"}}, "NOT (a = 'x')"},
		{All{}, "TRUE"},
	}
	for _, tc := range cases {
		if got := tc.pred.SQL(); got != tc.want {
			t.Errorf("SQL() = %q, want %q", got, tc.want)
		}
	}
}

func TestProjectAndDrop(t *testing.T) {
	tab := sampleTable(t)
	p, err := tab.Project("delayed", "carrier")
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if got := p.Columns(); !reflect.DeepEqual(got, []string{"delayed", "carrier"}) {
		t.Errorf("Columns = %v", got)
	}
}

func TestGroupBy(t *testing.T) {
	tab := sampleTable(t)
	groups, err := tab.GroupBy("carrier")
	if err != nil {
		t.Fatalf("GroupBy: %v", err)
	}
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	total := 0
	carrier := tab.MustColumn("carrier")
	for i, g := range groups {
		total += len(g.Rows)
		if got, want := carrier.Label(g.Key.Field(0)), []string{"AA", "UA"}[i]; g.Key.Fields() != 1 || got != want {
			t.Errorf("group %d decodes to %q, want %q", i, got, want)
		}
	}
	if total != tab.NumRows() {
		t.Errorf("group sizes sum to %d, want %d", total, tab.NumRows())
	}
}

func TestGroupByMultiAttributeNoCollisions(t *testing.T) {
	// Two attributes whose concatenated labels could collide ("a"+"bc" vs
	// "ab"+"c") must still land in different groups.
	b := NewBuilder("x", "y")
	b.MustAdd("a", "bc")
	b.MustAdd("ab", "c")
	b.MustAdd("a", "bc")
	tab, err := b.Table()
	if err != nil {
		t.Fatalf("Table: %v", err)
	}
	groups, err := tab.GroupBy("x", "y")
	if err != nil {
		t.Fatalf("GroupBy: %v", err)
	}
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	sizes := []int{len(groups[0].Rows), len(groups[1].Rows)}
	sort.Ints(sizes)
	if sizes[0] != 1 || sizes[1] != 2 {
		t.Errorf("group sizes = %v, want [1 2]", sizes)
	}
}

func TestGroupByEmptyAttrsSingleGroup(t *testing.T) {
	tab := sampleTable(t)
	groups, err := tab.GroupBy()
	if err != nil {
		t.Fatalf("GroupBy: %v", err)
	}
	if len(groups) != 1 || len(groups[0].Rows) != tab.NumRows() {
		t.Errorf("GroupBy() = %d groups, first size %d", len(groups), len(groups[0].Rows))
	}
}

func TestGroupKeyCodesRoundTrip(t *testing.T) {
	tab := sampleTable(t)
	carrier, airport := tab.MustColumn("carrier"), tab.MustColumn("airport")
	for i := 0; i < tab.NumRows(); i++ {
		want := []int32{carrier.Code(i), airport.Code(i)}
		if codes := EncodeKey(want...).Codes(); !slices.Equal(codes, want) {
			t.Errorf("row %d: EncodeKey(%v).Codes() = %v", i, want, codes)
		}
	}
}

func TestTabulateTotalAndNonZero(t *testing.T) {
	tab := sampleTable(t)
	dc, err := tab.Tabulate(nil, 0, "airport")
	if err != nil {
		t.Fatalf("Tabulate: %v", err)
	}
	if dc.Total != tab.NumRows() {
		t.Errorf("Total = %d, want %d", dc.Total, tab.NumRows())
	}
	if n := dc.NonZero(); n != 3 {
		t.Errorf("NonZero(airport) = %d, want 3", n)
	}
	dc, err = tab.Tabulate(Eq{Attr: "carrier", Value: "UA"}, 0, "airport")
	if err != nil {
		t.Fatalf("Tabulate: %v", err)
	}
	if dc.Total != 3 || dc.NonZero() != 2 {
		t.Errorf("Tabulate(carrier=UA): Total %d, NonZero %d; want 3, 2", dc.Total, dc.NonZero())
	}
}

func TestFloat(t *testing.T) {
	tab := sampleTable(t)
	vals, err := tab.Float("delayed")
	if err != nil {
		t.Fatalf("Float: %v", err)
	}
	want := []float64{0, 0, 1, 1, 0, 1}
	if !reflect.DeepEqual(vals, want) {
		t.Errorf("Float = %v, want %v", vals, want)
	}
	if _, err := tab.Float("carrier"); err == nil {
		t.Error("non-numeric column parsed as float")
	}
}

func TestSelectRowsValidation(t *testing.T) {
	tab := sampleTable(t)
	if _, err := tab.SelectRows([]int{0, 99}); err == nil {
		t.Error("out-of-range row accepted")
	}
	got, err := tab.SelectRows([]int{5, 0})
	if err != nil {
		t.Fatalf("SelectRows: %v", err)
	}
	if got.MustColumn("airport").Value(0) != "COS" || got.MustColumn("carrier").Value(1) != "AA" {
		t.Error("SelectRows did not preserve requested order")
	}
}

// TestCloneRowsMatchesMapReference: compacting a column to a row subset
// gives the codes, labels and first-seen label order of the map-keyed
// compaction, including an empty row set, repeated rows, and a dictionary
// whose labels the rows (or no rows at all) never use.
func TestCloneRowsMatchesMapReference(t *testing.T) {
	reference := func(c *Column, rows []int) ([]int32, []string) {
		codes := make([]int32, 0, len(rows))
		var labels []string
		remap := make(map[int32]int32)
		for _, r := range rows {
			code, ok := remap[c.codes[r]]
			if !ok {
				code = int32(len(labels))
				labels = append(labels, c.labels[c.codes[r]])
				remap[c.codes[r]] = code
			}
			codes = append(codes, code)
		}
		return codes, labels
	}
	unused, err := NewColumnFromCodes("u", []int32{3, 1, 3, 0, 1}, []string{"a", "b", "never", "d", "also never"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	vals := make([]string, 500)
	for i := range vals {
		vals[i] = "v" + strconv.Itoa(rng.Intn(40))
	}
	random := NewColumnFromStrings("r", vals)
	randomRows := make([]int, 300)
	for i := range randomRows {
		randomRows[i] = rng.Intn(len(vals))
	}
	cases := []struct {
		name string
		col  *Column
		rows []int
	}{
		{"empty", unused, nil},
		{"unused labels", unused, []int{4, 0, 2, 3}},
		{"repeated rows", unused, []int{1, 1, 3, 1}},
		{"random", random, randomRows},
		{"all rows reversed", random, []int{499, 498, 3, 2, 1, 0}},
	}
	for _, tc := range cases {
		got := tc.col.cloneRows(tc.rows)
		wantCodes, wantLabels := reference(tc.col, tc.rows)
		if !slices.Equal(got.codes, wantCodes) {
			t.Errorf("%s: codes %v, reference %v", tc.name, got.codes, wantCodes)
		}
		if !slices.Equal(got.labels, wantLabels) {
			t.Errorf("%s: labels %v, reference %v", tc.name, got.labels, wantLabels)
		}
		for code, l := range wantLabels {
			if codeOf(got, l) != int32(code) {
				t.Errorf("%s: CodeOf(%q) = %d, want %d", tc.name, l, codeOf(got, l), code)
			}
		}
		if codeOf(got, "never") != -1 || len(got.index) != len(wantLabels) {
			t.Errorf("%s: index holds %d labels, want %d", tc.name, len(got.index), len(wantLabels))
		}
	}
}

// TestRestrictedColumnIndex checks the lazily built label index of a
// restricted column: concurrent readers see the same codes and predicate
// results as on an eagerly indexed copy, and appending to a restricted
// column whose index was never built codes values as the copy does.
func TestRestrictedColumnIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder("a", "b")
	for range 2000 {
		b.MustAdd("a"+strconv.Itoa(rng.Intn(60)), "b"+strconv.Itoa(rng.Intn(9)))
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	// eager rebuilds a table through NewColumnFromCodes, which indexes its
	// labels up front.
	eager := func(tab *Table) *Table {
		cols := make([]*Column, tab.NumCols())
		for i, name := range tab.Columns() {
			c := tab.MustColumn(name)
			var err error
			if cols[i], err = NewColumnFromCodes(name, slices.Clone(c.Codes()), slices.Clone(c.Labels())); err != nil {
				t.Fatal(err)
			}
		}
		return mustNew(cols...)
	}
	restrict := func() *Table {
		r, err := tab.Select(Not{In{Attr: "b", Values: []string{"b0", "b3"}}})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	lazy := restrict()
	want := eager(lazy)
	probes := []string{"never"}
	for code := range 60 {
		probes = append(probes, "a"+strconv.Itoa(code))
	}
	preds := []Predicate{
		In{Attr: "a", Values: []string{"a1", "a7", "never", "a59"}},
		In{Attr: "a", Values: nil},
		Eq{Attr: "a", Value: "a3"},
		Eq{Attr: "b", Value: "b0"},
		Eq{Attr: "b", Value: "b5"},
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8*(len(probes)+len(preds)))
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			col, wcol := lazy.MustColumn("a"), want.MustColumn("a")
			for _, p := range probes {
				if got, w := codeOf(col, p), codeOf(wcol, p); got != w {
					errs <- fmt.Sprintf("CodeOf(%q) = %d, want %d", p, got, w)
				}
			}
			if !slices.Equal(col.Labels(), wcol.Labels()) {
				errs <- "labels differ"
			}
			for _, p := range preds {
				got, err := p.Eval(lazy)
				if err != nil {
					errs <- err.Error()
					continue
				}
				w, _ := p.Eval(want)
				if !slices.Equal(got, w) {
					errs <- p.SQL() + ": rows differ"
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	fresh, eagerB := restrict().MustColumn("b"), want.MustColumn("b")
	for _, v := range []string{"b5", "new", "b1", "new", "b0"} {
		if got, w := fresh.Append(v), eagerB.Append(v); got != w {
			t.Errorf("Append(%q) = %d, want %d", v, got, w)
		}
	}
	if !slices.Equal(fresh.Codes(), eagerB.Codes()) || !slices.Equal(fresh.Labels(), eagerB.Labels()) {
		t.Errorf("appended column %v %v, want %v %v", fresh.Codes(), fresh.Labels(), eagerB.Codes(), eagerB.Labels())
	}
}

func TestAppendRow(t *testing.T) {
	tab := sampleTable(t)
	if err := tab.AppendRow("DL", "JFK", "0"); err != nil {
		t.Fatalf("AppendRow: %v", err)
	}
	if tab.NumRows() != 7 {
		t.Errorf("NumRows = %d, want 7", tab.NumRows())
	}
	if tab.MustColumn("carrier").Value(6) != "DL" {
		t.Error("appended row not readable")
	}
	if err := tab.AppendRow("too", "few"); err == nil {
		t.Error("short row accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tab := sampleTable(t)
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if back.NumRows() != tab.NumRows() || back.NumCols() != tab.NumCols() {
		t.Fatalf("round trip shape %dx%d, want %dx%d",
			back.NumRows(), back.NumCols(), tab.NumRows(), tab.NumCols())
	}
	for _, name := range tab.Columns() {
		a, b := tab.MustColumn(name), back.MustColumn(name)
		for i := 0; i < tab.NumRows(); i++ {
			if a.Value(i) != b.Value(i) {
				t.Fatalf("col %s row %d: %q != %q", name, i, a.Value(i), b.Value(i))
			}
		}
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	tab := sampleTable(t)
	path := t.TempDir() + "/t.csv"
	if err := tab.WriteCSVFile(path); err != nil {
		t.Fatalf("WriteCSVFile: %v", err)
	}
	back, err := ReadCSVFile(path)
	if err != nil {
		t.Fatalf("ReadCSVFile: %v", err)
	}
	if back.NumRows() != tab.NumRows() {
		t.Errorf("rows = %d, want %d", back.NumRows(), tab.NumRows())
	}
}

func TestReadCSVRagged(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("a,b\n1\n")); err == nil {
		t.Error("ragged CSV accepted")
	}
}

// Property: selecting with a random In predicate keeps exactly the matching
// rows, in their original relative order.
func TestQuickSelectPreservesMatchingRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		vals := make([]string, n)
		for i := range vals {
			vals[i] = strconv.Itoa(r.Intn(5))
		}
		tab := mustNew(NewColumnFromStrings("v", vals))
		pick := strconv.Itoa(r.Intn(5))
		sel, err := tab.Select(Eq{Attr: "v", Value: pick})
		if err != nil {
			return false
		}
		var want []string
		for _, v := range vals {
			if v == pick {
				want = append(want, v)
			}
		}
		if sel.NumRows() != len(want) {
			return false
		}
		c := sel.MustColumn("v")
		for i := range want {
			if c.Value(i) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: group sizes always partition the table.
func TestQuickGroupByPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a := make([]string, n)
		b := make([]string, n)
		for i := range a {
			a[i] = strconv.Itoa(r.Intn(4))
			b[i] = strconv.Itoa(r.Intn(3))
		}
		tab := mustNew(NewColumnFromStrings("a", a), NewColumnFromStrings("b", b))
		groups, err := tab.GroupBy("a", "b")
		if err != nil {
			return false
		}
		seen := make(map[int]bool)
		for _, g := range groups {
			for _, row := range g.Rows {
				if seen[row] {
					return false // row in two groups
				}
				seen[row] = true
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestGroupByOrderWideCodes pins GroupBy's output where the grouping
// attribute has more than 256 codes: groups come in ascending GroupKey
// string order — keys are little-endian, so codes compare byte-reversed
// (code 256 sorts before code 1) — and each group lists its rows in row
// order.
func TestGroupByOrderWideCodes(t *testing.T) {
	tab := codedTable(t, 1500, []int{300, 3, 300}, func(i, j int) int32 {
		switch j {
		case 0:
			return int32(i * 7 % 300)
		case 1:
			return int32(i % 3)
		}
		return int32((i*11 + i/500) % 300)
	})
	// {A0 A2} and {A2 A1 A0} span more key values than rows, so GroupBy
	// sorts them in more than one radix pass.
	for _, attrs := range [][]string{{"A0"}, {"A0", "A1"}, {"A1", "A0"}, {"A0", "A2"}, {"A2", "A1", "A0"}, {}} {
		groups, err := tab.GroupBy(attrs...)
		if err != nil {
			t.Fatal(err)
		}
		want := map[GroupKey][]int{}
		for i := 0; i < tab.NumRows(); i++ {
			codes := make([]int32, len(attrs))
			for j, a := range attrs {
				codes[j] = tab.MustColumn(a).Code(i)
			}
			k := EncodeKey(codes...)
			want[k] = append(want[k], i)
		}
		keys := make([]GroupKey, 0, len(want))
		for k := range want {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		if len(groups) != len(keys) {
			t.Fatalf("GroupBy(%v): %d groups, want %d", attrs, len(groups), len(keys))
		}
		for i, g := range groups {
			if g.Key != keys[i] || !slices.Equal(g.Rows, want[g.Key]) {
				t.Fatalf("GroupBy(%v): group %d is %v with %d rows, want %v with rows %v",
					attrs, i, g.Key.Codes(), len(g.Rows), keys[i].Codes(), want[keys[i]])
			}
		}
		if len(attrs) > 0 && attrs[0] == "A0" {
			i := 1
			for groups[i].Key.Field(0) == 0 {
				i++
			}
			if code := groups[i].Key.Field(0); code != 256 {
				t.Errorf("GroupBy(%v): the first group past code 0 has code %d, want 256 (byte-reversed order)", attrs, code)
			}
		}
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const oldRuns = `goos: linux
goarch: amd64
pkg: hypdb
cpu: Intel(R) Xeon(R)
BenchmarkFig1FlightAnalysis-2   	      2	 120000000 ns/op	20000000 B/op	  300000 allocs/op
BenchmarkFig1FlightAnalysis-2   	      2	 130000000 ns/op	20000000 B/op	  300000 allocs/op
BenchmarkFig1FlightAnalysis-2   	      2	 125000000 ns/op	20000000 B/op	  300000 allocs/op
BenchmarkGone-2                 	     10	      1500 ns/op
PASS
ok  	hypdb	3.1s
pkg: hypdb/internal/core
BenchmarkPrepareCandidates/mem-2	      2	  90000000 ns/op	   12.5 pairs/op
BenchmarkPrepareCandidates/mem-2	      2	  91000000 ns/op	   12.5 pairs/op
`

const newRuns = `pkg: hypdb
BenchmarkFig1FlightAnalysis-8   	      2	  60000000 ns/op	12000000 B/op	  150000 allocs/op
BenchmarkFig1FlightAnalysis-8   	      2	  64000000 ns/op	12000000 B/op	  150000 allocs/op
BenchmarkFig1FlightAnalysis-8   	      2	  62000000 ns/op	12000000 B/op	  150001 allocs/op
BenchmarkAdded-8                	      5	      2000 ns/op
pkg: hypdb/internal/core
BenchmarkPrepareCandidates/mem-8	      2	  90500000 ns/op	   12.5 pairs/op
BenchmarkPrepareCandidates/mem-8	      2	  90400000 ns/op	   12.5 pairs/op
`

func TestParse(t *testing.T) {
	res, err := parse(strings.NewReader(oldRuns))
	if err != nil {
		t.Fatal(err)
	}
	got := res.values[key{"hypdb", "BenchmarkFig1FlightAnalysis", "ns/op"}]
	if want := []float64{120e6, 130e6, 125e6}; !slices.Equal(got, want) {
		t.Errorf("ns/op = %v, want %v", got, want)
	}
	if got := res.values[key{"hypdb/internal/core", "BenchmarkPrepareCandidates/mem", "pairs/op"}]; !slices.Equal(got, []float64{12.5, 12.5}) {
		t.Errorf("custom metric = %v", got)
	}
	if len(res.order) != 6 {
		t.Errorf("series %v, want 6", res.order)
	}
}

func TestStats(t *testing.T) {
	xs := []float64{5, 1, 3, 100, 2}
	if m := median(xs); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	if m := mad(xs); m != 2 { // deviations 2, 2, 0, 97, 1
		t.Errorf("mad = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
	for v, want := range map[float64]string{125e6: "125M", 1500: "1.5k", 0.25: "0.25", 3e9: "3G"} {
		if got := human(v); got != want {
			t.Errorf("human(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	oldPath, newPath := filepath.Join(dir, "old.txt"), filepath.Join(dir, "new.txt")
	if err := os.WriteFile(oldPath, []byte(oldRuns), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, []byte(newRuns), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := cli([]string{oldPath, newPath}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) == 7 {
			rows[f[0]+" "+f[1]] = f[2:]
		}
	}
	for row, want := range map[string][]string{
		// Medians 125M vs 62M, MADs 5M and 2M: a real change.
		"BenchmarkFig1FlightAnalysis ns/op":     {"125M", "5M", "62M", "2M", "-50.4%"},
		"BenchmarkFig1FlightAnalysis B/op":      {"20M", "0", "12M", "0", "-40.0%"},
		"BenchmarkFig1FlightAnalysis allocs/op": {"300k", "0", "150k", "0", "-50.0%"},
		// 90.5M vs 90.45M with MADs 0.5M and 0.05M: noise.
		"BenchmarkPrepareCandidates/mem ns/op":    {"90.5M", "500k", "90.45M", "50k", "~"},
		"BenchmarkPrepareCandidates/mem pairs/op": {"12.5", "0", "12.5", "0", "~"},
		"BenchmarkGone ns/op":                     {"1.5k", "0", "-", "-", "-"},
		"BenchmarkAdded ns/op":                    {"-", "-", "2k", "0", "-"},
	} {
		if got := rows[row]; !slices.Equal(got, want) {
			t.Errorf("%s: %v, want %v\n%s", row, got, want, out.String())
		}
	}
	if !strings.Contains(out.String(), "pkg: hypdb/internal/core") {
		t.Errorf("no package header:\n%s", out.String())
	}
}

func TestCLIErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := cli([]string{"only-one"}, &out, &errOut); code != 2 {
		t.Errorf("one argument: exit %d, want 2", code)
	}
	if code := cli([]string{filepath.Join(t.TempDir(), "missing"), "x"}, &out, &errOut); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}

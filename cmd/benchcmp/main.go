// Command benchcmp compares two files of `go test -bench` output offline,
// using only the standard library:
//
//	go test -run '^$' -bench . -benchmem -count 5 ./... > old.txt
//	go test -run '^$' -bench . -benchmem -count 5 ./... > new.txt  # after the change
//	go run ./cmd/benchcmp old.txt new.txt
//
// For every benchmark and unit (ns/op, B/op, allocs/op and any custom
// metric) it prints each side's median and median absolute deviation (MAD)
// over the repeated runs, and the change of the median as a share of the
// old one. A change no larger than the two MADs together is marked "~":
// the runs cannot tell the sides apart. A benchmark present on one side
// only is listed with "-" for the other.
//
// Benchmarks are keyed by package and name; the "-N" GOMAXPROCS suffix is
// dropped so runs on different machines line up. The exit status is 2 when
// a file cannot be read, 0 otherwise.
package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchcmp OLD_FILE NEW_FILE")
		return 2
	}
	var sides [2]*results
	for i, path := range args {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(stderr, "benchcmp: %v\n", err)
			return 2
		}
		sides[i], err = parse(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "benchcmp: %s: %v\n", path, err)
			return 2
		}
	}
	compare(stdout, sides[0], sides[1])
	return 0
}

// key identifies one series: a benchmark of a package measured in a unit.
type key struct {
	pkg, name, unit string
}

// results holds every measured value of one file, with the series in the
// order they first appear.
type results struct {
	order  []key
	values map[key][]float64
}

func (r *results) add(k key, v float64) {
	if _, ok := r.values[k]; !ok {
		r.order = append(r.order, k)
	}
	r.values[k] = append(r.values[k], v)
}

var procSuffix = regexp.MustCompile(`-\d+$`)

// parse reads `go test -bench` output: "pkg:" lines set the package of the
// result lines that follow, each "Benchmark..." line holds a name, an
// iteration count and value-unit pairs. Other lines are skipped.
func parse(r io.Reader) (*results, error) {
	res := &results{values: map[key][]float64{}}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || len(f)%2 != 0 {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		name := procSuffix.ReplaceAllString(f[0], "")
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			res.add(key{pkg, name, f[i+1]}, v)
		}
	}
	return res, sc.Err()
}

func median(xs []float64) float64 {
	d := slices.Sorted(slices.Values(xs))
	if len(d) == 0 {
		return math.NaN()
	}
	if len(d)%2 == 1 {
		return d[len(d)/2]
	}
	return (d[len(d)/2-1] + d[len(d)/2]) / 2
}

// mad is the median absolute deviation from the median.
func mad(xs []float64) float64 {
	m := median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return median(dev)
}

// compare prints one row per series of either side, grouped by package.
func compare(w io.Writer, old, new *results) {
	order := slices.Clone(old.order)
	for _, k := range new.order {
		if _, ok := old.values[k]; !ok {
			order = append(order, k)
		}
	}
	slices.SortStableFunc(order, func(a, b key) int { return strings.Compare(a.pkg, b.pkg) })
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for i, k := range order {
		if i == 0 || k.pkg != order[i-1].pkg {
			tw.Flush()
			if i > 0 {
				fmt.Fprintln(w)
			}
			fmt.Fprintf(w, "pkg: %s\n", k.pkg)
			fmt.Fprintln(tw, "benchmark\tunit\told median\told MAD\tnew median\tnew MAD\tdelta")
		}
		ov, nv := old.values[k], new.values[k]
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", k.name, k.unit,
			side(ov, median), side(ov, mad), side(nv, median), side(nv, mad), delta(ov, nv))
	}
	tw.Flush()
}

func side(xs []float64, stat func([]float64) float64) string {
	if len(xs) == 0 {
		return "-"
	}
	return human(stat(xs))
}

// delta is the change of the median in percent, "~" when it is within the
// two sides' MADs together.
func delta(old, new []float64) string {
	if len(old) == 0 || len(new) == 0 {
		return "-"
	}
	mo, mn := median(old), median(new)
	if math.Abs(mn-mo) <= mad(old)+mad(new) {
		return "~"
	}
	if mo == 0 {
		return "+inf"
	}
	return fmt.Sprintf("%+.1f%%", 100*(mn-mo)/math.Abs(mo))
}

// human prints v with four significant digits and a k/M/G suffix.
func human(v float64) string {
	for _, s := range []struct {
		scale  float64
		suffix string
	}{{1e9, "G"}, {1e6, "M"}, {1e3, "k"}} {
		if math.Abs(v) >= s.scale {
			return strconv.FormatFloat(v/s.scale, 'g', 4, 64) + s.suffix
		}
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

package catalog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// fuzzRecords decodes ops into journal records, one per byte: the byte
// picks the op and the dataset name, and seeds the record's payload.
func fuzzRecords(ops []byte) []Record {
	names := []string{"a", "b", "c"}
	recs := make([]Record, len(ops))
	for i, b := range ops {
		name := names[int(b/3)%len(names)]
		switch b % 3 {
		case 0:
			recs[i] = Record{Op: OpCreate, Name: name, Kind: KindCSV, Shards: int(b % 5), CSVFile: fmt.Sprintf("csv/%s-%d.csv", name, i)}
		case 1:
			recs[i] = Record{Op: OpAppend, Name: name, Rows: [][]string{{fmt.Sprint(b), "x\"y"}, {"", "z"}}}
		default:
			recs[i] = Record{Op: OpDelete, Name: name}
		}
	}
	return recs
}

// liveRecords is the reference replay: a delete drops every earlier record
// of its name, itself included.
func liveRecords(recs []Record) []Record {
	var live []Record
	for _, r := range recs {
		if r.Op != OpDelete {
			live = append(live, r)
			continue
		}
		kept := []Record{}
		for _, l := range live {
			if l.Name != r.Name {
				kept = append(kept, l)
			}
		}
		live = kept
	}
	return live
}

// sameRecords compares record lists, treating nil and empty alike.
func sameRecords(got, want []Record) bool {
	return len(got) == 0 && len(want) == 0 || reflect.DeepEqual(got, want)
}

// FuzzJournalReplay replays fuzzed journals. A valid prefix plus a torn
// tail (one more record cut inside its JSON object, without its newline)
// replays to the prefix's live records; a corrupted line before the last
// fails with an error instead of dropping records; and no input panics.
// The seed corpus is under testdata/fuzz/FuzzJournalReplay.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte, cut uint, bad []byte, at uint8) {
		// Whatever the bytes, replay returns; it never panics.
		_, _ = replay(bytes.NewReader(ops))

		recs := fuzzRecords(ops)
		tail := Record{Op: OpCreate, Name: "torn", Kind: KindRemote, Peers: []string{"http://p"}}
		lines := make([][]byte, len(recs)+1)
		for i, r := range append(recs, tail) {
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			lines[i] = append(line, '\n')
		}
		// The tail is cut before its newline. Cut inside the object it does
		// not decode and is dropped; a whole object is a written record.
		torn := lines[len(recs)]
		torn = torn[:cut%uint(len(torn))]
		want := liveRecords(recs)
		if len(torn) == len(lines[len(recs)])-1 {
			want = liveRecords(append(recs, tail))
		}
		journal := append(bytes.Join(lines[:len(recs)], nil), torn...)
		got, err := replay(bytes.NewReader(journal))
		if err != nil {
			t.Fatalf("torn tail %q: %v", torn, err)
		}
		if !sameRecords(got, want) {
			t.Fatalf("torn tail %q: live %+v, want %+v", torn, got, want)
		}

		// Corrupt one line before the last with bad. The scanner splits on
		// newlines and drops a carriage return, so bad holds neither; an
		// empty line is skipped, and a line that still decodes is no
		// corruption replay can see.
		bad = bytes.ReplaceAll(bytes.ReplaceAll(bad, []byte("\n"), nil), []byte("\r"), nil)
		if len(recs) < 2 || len(bad) == 0 || json.Unmarshal(bad, new(Record)) == nil {
			return
		}
		i := int(at) % (len(recs) - 1)
		corrupt := append(append(bytes.Join(lines[:i], nil), bad...), '\n')
		corrupt = append(corrupt, bytes.Join(lines[i+1:len(recs)], nil)...)
		if live, err := replay(bytes.NewReader(corrupt)); err == nil {
			t.Fatalf("line %d corrupted to %q: replayed %d records without an error", i+1, bad, len(live))
		}
	})
}

// Package catalog persists hypdbd's dataset registrations so a restart
// can rebuild the serving state without re-registration. The design is a
// plain append-only journal:
//
//   - every mutating catalog operation (dataset create, sharded append,
//     dataset delete) is one JSON record appended to journal.jsonl and
//     fsynced before the server acknowledges the request;
//   - uploaded CSV bodies are spilled to their own files under csv/ so
//     the journal stays small and a dataset's raw bytes survive verbatim;
//   - on startup the server replays the journal in order — deletes cancel
//     every earlier record for their dataset — and re-registers what is
//     left: CSV datasets re-load from the spill files, SQL datasets
//     re-open their DSNs, remote datasets re-handshake their peers, and
//     sharded appends re-apply so snapshot versions re-pin exactly.
//
// Compaction rewrites the journal with only live records (atomic
// tmp+rename) and garbage-collects orphaned spill files; the server runs
// it after replay so a churn-heavy history does not grow the directory
// without bound.
package catalog

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// Ops recorded in the journal.
const (
	// OpCreate registers a dataset; Kind says which backend family.
	OpCreate = "create"
	// OpAppend records rows streamed into a sharded dataset. Replaying
	// appends in order reproduces the dataset's snapshot version.
	OpAppend = "append"
	// OpDelete unregisters a dataset, cancelling all earlier records for
	// the same name on replay.
	OpDelete = "delete"
)

// Kinds of dataset a create record can describe.
const (
	// KindCSV is an uploaded CSV served by the mem backend (Shards <= 1)
	// or the sharded backend (Shards > 1); the body lives in CSVFile.
	KindCSV = "csv"
	// KindSQL is a DSN-registered SQL table.
	KindSQL = "sql"
	// KindRemote is a dataset served by remote hypdbd peers.
	KindRemote = "remote"
)

// Record is one journaled catalog operation.
type Record struct {
	// Op is OpCreate, OpAppend, or OpDelete.
	Op string `json:"op"`
	// Name is the dataset name the operation applies to.
	Name string `json:"name"`

	// Kind (create only) is KindCSV, KindSQL, or KindRemote.
	Kind string `json:"kind,omitempty"`
	// Shards (KindCSV) is the registration-time shard count; <= 1 means
	// the unsharded mem backend.
	Shards int `json:"shards,omitempty"`
	// CSVFile (KindCSV) names the spilled CSV body, relative to the
	// journal directory (e.g. "csv/flights-123.csv").
	CSVFile string `json:"csv_file,omitempty"`

	// Driver, DSN, and SQLTable (KindSQL) re-open the SQL source.
	Driver   string `json:"driver,omitempty"`
	DSN      string `json:"dsn,omitempty"`
	SQLTable string `json:"sql_table,omitempty"`

	// Peers and Degraded (KindRemote) re-handshake the remote shards.
	Peers    []string `json:"peers,omitempty"`
	Degraded bool     `json:"degraded,omitempty"`

	// Rows (append only) are the ingested rows, one string per attribute.
	Rows [][]string `json:"rows,omitempty"`
}

// Journal is an append-only catalog journal rooted at a data directory.
// Append and SpillCSV are safe for concurrent use; Replay and Compact
// must not race with writers (the server serializes them at startup).
type Journal struct {
	dir string

	mu sync.Mutex
	f  *os.File
	// appended counts records durably written by this process, for the
	// service's catalog metrics.
	appended atomic.Int64
}

const journalFile = "journal.jsonl"

// Open creates the data directory if needed and opens the journal for
// appending.
func Open(dir string) (*Journal, error) {
	if dir == "" {
		return nil, errors.New("catalog: empty data directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "csv"), 0o755); err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	return &Journal{dir: dir, f: f}, nil
}

// Close closes the journal file. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Append durably writes one record: the line is flushed and fsynced
// before Append returns, so an acknowledged registration survives a
// crash immediately after.
func (j *Journal) Append(rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("catalog: journal closed")
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	j.appended.Add(1)
	return nil
}

// Appended reports how many records this process has durably written —
// a monotonic counter for the service's catalog metrics (replayed history
// from earlier processes is not counted).
func (j *Journal) Appended() int64 { return j.appended.Load() }

// SpillCSV writes a CSV body to a fresh file under csv/ and returns its
// journal-relative path for the create record. The file is fsynced; call
// SpillCSV before Append so the record never references missing bytes.
func (j *Journal) SpillCSV(name, body string) (string, error) {
	f, err := os.CreateTemp(filepath.Join(j.dir, "csv"), sanitize(name)+"-*.csv")
	if err != nil {
		return "", fmt.Errorf("catalog: %w", err)
	}
	if _, err := io.WriteString(f, body); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", fmt.Errorf("catalog: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", fmt.Errorf("catalog: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return "", fmt.Errorf("catalog: %w", err)
	}
	return filepath.Join("csv", filepath.Base(f.Name())), nil
}

// ReadCSV loads a spilled CSV body by its journal-relative path.
func (j *Journal) ReadCSV(file string) (string, error) {
	b, err := os.ReadFile(filepath.Join(j.dir, file))
	if err != nil {
		return "", fmt.Errorf("catalog: %w", err)
	}
	return string(b), nil
}

// Replay reads the journal and returns the live records in original
// order: an OpDelete drops itself and every earlier record for its name,
// so what remains is exactly the sequence of creates and appends that
// rebuilds the current catalog. A trailing partial line (torn write from
// a crash mid-append) is ignored; a corrupt line elsewhere is an error.
func (j *Journal) Replay() ([]Record, error) {
	f, err := os.Open(filepath.Join(j.dir, journalFile))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("catalog: %w", err)
	}
	defer f.Close()
	return replay(f)
}

// replay is Replay over the journal's bytes.
func replay(r io.Reader) ([]Record, error) {
	var live []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			// Only a torn final line is forgivable: it means the process
			// died mid-write before acknowledging, so the operation never
			// happened as far as any client knows.
			if atEOF(sc) {
				break
			}
			return nil, fmt.Errorf("catalog: journal line %d: %w", lineNo, err)
		}
		if rec.Op == OpDelete {
			kept := live[:0]
			for _, r := range live {
				if r.Name != rec.Name {
					kept = append(kept, r)
				}
			}
			live = kept
			continue
		}
		live = append(live, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	return live, nil
}

// atEOF reports whether the scanner has no further lines — used to decide
// whether an unparsable line is a torn tail or mid-journal corruption.
func atEOF(sc *bufio.Scanner) bool { return !sc.Scan() }

// Compact rewrites the journal to contain only the live records (as
// Replay would return) and deletes spill files no live record references.
// The rewrite is atomic: a crash mid-compaction leaves either the old or
// the new journal, never a mix. The journal stays open for appends.
func (j *Journal) Compact() error {
	live, err := j.Replay()
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("catalog: journal closed")
	}

	tmp, err := os.CreateTemp(j.dir, journalFile+".tmp-*")
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	defer os.Remove(tmp.Name())
	enc := json.NewEncoder(tmp)
	for _, rec := range live {
		if err := enc.Encode(rec); err != nil {
			tmp.Close()
			return fmt.Errorf("catalog: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("catalog: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	path := filepath.Join(j.dir, journalFile)
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	// Re-point the append handle at the new file; the old inode is gone.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	j.f.Close()
	j.f = f

	// Garbage-collect spill files nothing references anymore.
	used := make(map[string]bool, len(live))
	for _, rec := range live {
		if rec.CSVFile != "" {
			used[filepath.Base(rec.CSVFile)] = true
		}
	}
	entries, err := os.ReadDir(filepath.Join(j.dir, "csv"))
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	for _, ent := range entries {
		if !ent.IsDir() && !used[ent.Name()] {
			os.Remove(filepath.Join(j.dir, "csv", ent.Name()))
		}
	}
	return nil
}

// sanitize maps a dataset name to a safe spill-file prefix. Dataset names
// are already restricted to [a-zA-Z0-9._-], but defend anyway.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
			return r
		default:
			return '_'
		}
	}, name)
}

package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"

	"hypdb/internal/hyperr"
)

// ReadCSV loads a table from CSV. The first record is the header; every
// field is treated as a categorical label. All parse failures wrap
// hyperr.ErrMalformedCSV so callers can classify them with errors.Is.
func ReadCSV(r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w: %w", err, hyperr.ErrMalformedCSV)
	}
	cols := make([]*Column, len(header))
	for i, h := range header {
		cols[i] = newColumn(h)
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV: %w: %w", err, hyperr.ErrMalformedCSV)
		}
		if len(rec) != len(cols) {
			return nil, fmt.Errorf("dataset: CSV row has %d fields, want %d: %w", len(rec), len(cols), hyperr.ErrMalformedCSV)
		}
		for i, v := range rec {
			cols[i].Append(v)
		}
	}
	t, err := New(cols...)
	if err != nil {
		// Duplicate or empty headers surface here; they are input defects,
		// not caller bugs.
		return nil, fmt.Errorf("%w: %w", err, hyperr.ErrMalformedCSV)
	}
	return t, nil
}

// ReadCSVFile loads a table from the CSV file at path.
func ReadCSVFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f)
}

// WriteCSV writes the table as CSV with a header row.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns()); err != nil {
		return err
	}
	rec := make([]string, len(t.cols))
	for i := 0; i < t.numRows; i++ {
		for j, c := range t.cols {
			rec[j] = c.Value(i)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the table to the file at path, creating or truncating.
func (t *Table) WriteCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Package report renders experiment results in the three formats the
// tooling needs — aligned text for terminals, CSV for plotting, JSON for
// downstream processing — behind one Table abstraction, plus converters
// from every experiment result type.
package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table is a rendered result: a header and homogeneous string rows.
type Table struct {
	// Title is printed above text output and carried in JSON.
	Title string `json:"title"`
	// Header names the columns.
	Header []string `json:"header"`
	// Rows hold the cells, one slice per row, len == len(Header).
	Rows [][]string `json:"rows"`
}

// Validate checks structural consistency.
func (t *Table) Validate() error {
	if len(t.Header) == 0 {
		return fmt.Errorf("report: table %q has no header", t.Title)
	}
	for i, r := range t.Rows {
		if len(r) != len(t.Header) {
			return fmt.Errorf("report: table %q row %d has %d cells for %d columns", t.Title, i, len(r), len(t.Header))
		}
	}
	return nil
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, wd := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", wd))
	}
	sb.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// WriteCSV renders the table as CSV (header first, no title row).
func (t *Table) WriteCSV(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON renders the table as an indented JSON object.
func (t *Table) WriteJSON(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// Format selects an output encoding by name.
type Format string

// Supported formats.
const (
	Text Format = "text"
	CSV  Format = "csv"
	JSON Format = "json"
)

// Write renders in the requested format.
func (t *Table) Write(w io.Writer, f Format) error {
	switch f {
	case Text, "":
		return t.WriteText(w)
	case CSV:
		return t.WriteCSV(w)
	case JSON:
		return t.WriteJSON(w)
	default:
		return fmt.Errorf("report: unknown format %q", f)
	}
}

// Package telemetry provides the structured event log, counters and
// tables the simulation and the experiment harness share: every
// negotiation step, safety trigger and mission milestone lands here, and
// the harness renders them as the markdown tables in EXPERIMENTS.md.
package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Event is one timestamped log record.
type Event struct {
	At     time.Duration // simulation time
	Source string        // emitting subsystem ("drone", "protocol", ...)
	Kind   string        // event type ("poke", "danger", "trap-read", ...)
	Detail string        // human-readable payload
}

// Log is a thread-safe append-only event log with counters.
type Log struct {
	mu       sync.Mutex
	events   []Event
	counters map[string]int
}

// NewLog creates an empty log.
func NewLog() *Log {
	return &Log{counters: make(map[string]int)}
}

// Emit appends an event and bumps its kind counter.
func (l *Log) Emit(at time.Duration, source, kind, detail string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, Event{At: at, Source: source, Kind: kind, Detail: detail})
	l.counters[kind]++
}

// Emitf is Emit with a format string for the detail.
func (l *Log) Emitf(at time.Duration, source, kind, format string, args ...any) {
	l.Emit(at, source, kind, fmt.Sprintf(format, args...))
}

// Count returns how many events of the kind were emitted.
func (l *Log) Count(kind string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counters[kind]
}

// Len returns the total number of events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Events returns a copy of all events in emission order.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// EventsOfKind returns the events matching kind, in order.
func (l *Log) EventsOfKind(kind string) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for _, e := range l.events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// String renders the log as a readable transcript.
func (l *Log) String() string {
	var sb strings.Builder
	for _, e := range l.Events() {
		fmt.Fprintf(&sb, "[%8.2fs] %-10s %-16s %s\n", e.At.Seconds(), e.Source, e.Kind, e.Detail)
	}
	return sb.String()
}

// Table builds aligned markdown tables for the experiment reports.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted cells.
func (t *Table) AddRowf(format string, args ...any) {
	t.AddRow(strings.Split(fmt.Sprintf(format, args...), "|")...)
}

// Markdown renders the table as GitHub-flavoured markdown.
func (t *Table) Markdown() string {
	var sb strings.Builder
	sb.WriteString("| " + strings.Join(t.header, " | ") + " |\n")
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = "---"
	}
	sb.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, r := range t.rows {
		sb.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	return sb.String()
}

// CSV renders the table as RFC-4180-style CSV (quotes only where needed),
// for downstream analysis outside the markdown reports.
func (t *Table) CSV() string {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				sb.WriteByte('"')
				sb.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				sb.WriteByte('"')
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	for _, r := range t.rows {
		writeRow(r)
	}
	return sb.String()
}

// EventsCSV renders the full event log as CSV.
func (l *Log) EventsCSV() string {
	t := NewTable("t_seconds", "source", "kind", "detail")
	for _, e := range l.Events() {
		t.AddRow(fmt.Sprintf("%.3f", e.At.Seconds()), e.Source, e.Kind, e.Detail)
	}
	return t.CSV()
}

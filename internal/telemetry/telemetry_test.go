package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLogEmitAndCount(t *testing.T) {
	l := NewLog()
	l.Emit(time.Second, "drone", "poke", "first")
	l.Emitf(2*time.Second, "drone", "poke", "n=%d", 2)
	l.Emit(3*time.Second, "protocol", "granted", "")
	if l.Count("poke") != 2 || l.Count("granted") != 1 || l.Count("missing") != 0 {
		t.Fatal("counters wrong")
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
	evs := l.EventsOfKind("poke")
	if len(evs) != 2 || evs[1].Detail != "n=2" {
		t.Fatalf("events of kind: %+v", evs)
	}
}

func TestLogEventsCopied(t *testing.T) {
	l := NewLog()
	l.Emit(0, "a", "b", "c")
	evs := l.Events()
	evs[0].Kind = "hacked"
	if l.Events()[0].Kind != "b" {
		t.Fatal("Events leaked internal slice")
	}
}

func TestLogString(t *testing.T) {
	l := NewLog()
	l.Emit(1500*time.Millisecond, "drone", "danger", "battery low")
	s := l.String()
	if !strings.Contains(s, "danger") || !strings.Contains(s, "battery low") || !strings.Contains(s, "1.50s") {
		t.Fatalf("transcript: %q", s)
	}
}

func TestLogConcurrent(t *testing.T) {
	l := NewLog()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Emit(0, "g", "tick", "")
			}
		}()
	}
	wg.Wait()
	if l.Count("tick") != 800 {
		t.Fatalf("tick count = %d", l.Count("tick"))
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("az", "dist", "ok")
	tb.AddRow("0", "0.00", "yes")
	tb.AddRow("65") // short row padded
	md := tb.Markdown()
	lines := strings.Split(strings.TrimSpace(md), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), md)
	}
	if !strings.HasPrefix(lines[0], "| az | dist | ok |") {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.Contains(lines[3], "| 65 |  |  |") {
		t.Fatalf("padded row: %q", lines[3])
	}
}

func TestTableAddRowf(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRowf("%d|%0.2f", 7, 3.14159)
	md := tb.Markdown()
	if !strings.Contains(md, "| 7 | 3.14 |") {
		t.Fatalf("AddRowf: %s", md)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("plain", `has,comma`)
	tb.AddRow(`has"quote`, "line\nbreak")
	csv := tb.CSV()
	lines := strings.SplitN(csv, "\n", 2)
	if lines[0] != "a,b" {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.Contains(csv, `"has,comma"`) {
		t.Fatalf("comma not quoted: %q", csv)
	}
	if !strings.Contains(csv, `"has""quote"`) {
		t.Fatalf("quote not escaped: %q", csv)
	}
	if !strings.Contains(csv, "\"line\nbreak\"") {
		t.Fatalf("newline not quoted: %q", csv)
	}
}

func TestEventsCSV(t *testing.T) {
	l := NewLog()
	l.Emit(1500*time.Millisecond, "drone", "danger", "battery, low")
	csv := l.EventsCSV()
	if !strings.Contains(csv, "t_seconds,source,kind,detail") {
		t.Fatalf("header missing: %q", csv)
	}
	if !strings.Contains(csv, `1.500,drone,danger,"battery, low"`) {
		t.Fatalf("row missing: %q", csv)
	}
}

package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestAddfSplitsFormatNotOutput(t *testing.T) {
	for _, tc := range []struct {
		format string
		args   []any
		want   []string
	}{
		// The regression: a rendered value containing "|" must stay in
		// its own cell instead of shifting every column after it.
		{"%s|%d", []any{"a|b", 3}, []string{"a|b", "3"}},
		{"%s|%s|%.2f", []any{"x|y|z", "p|q", 1.5}, []string{"x|y|z", "p|q", "1.50"}},
		// Plain rows are unchanged.
		{"%s|%d|%.1f", []any{"YT", 7, 2.25}, []string{"YT", "7", "2.2"}},
		// Literal text, escaped percents, and multi-verb cells.
		{"lit|%d%%|%s-%d", []any{50, "v", 9}, []string{"lit", "50%", "v-9"}},
		// Too few args renders like fmt: missing verbs show %!d(MISSING).
		{"%s|%d", []any{"only"}, []string{"only", "%!d(MISSING)"}},
	} {
		tbl := newTable("a", "b", "c")
		tbl.addf(tc.format, tc.args...)
		if got := tbl.rows[len(tbl.rows)-1]; !reflect.DeepEqual(got, tc.want) {
			t.Errorf("addf(%q, %v) = %#v, want %#v", tc.format, tc.args, got, tc.want)
		}
	}
}

func TestAddfSurplusArgsSurfaced(t *testing.T) {
	tbl := newTable("a")
	tbl.addf("%s", "x", 42)
	row := tbl.rows[0]
	if len(row) != 1 || !strings.Contains(row[0], "EXTRA") {
		t.Errorf("surplus args should be surfaced fmt-style, got %#v", row)
	}
}

func TestCountVerbs(t *testing.T) {
	for _, tc := range []struct {
		format string
		want   int
	}{
		{"%s", 1}, {"%.2f", 1}, {"%d%%", 1}, {"%%", 0},
		{"plain", 0}, {"%s-%d %v", 3}, {"100%%|%s", 1},
	} {
		if got := countVerbs(tc.format); got != tc.want {
			t.Errorf("countVerbs(%q) = %d, want %d", tc.format, got, tc.want)
		}
	}
}

func TestTableWriteAlignsPipeValues(t *testing.T) {
	tbl := newTable("name", "value")
	tbl.addf("%s|%d", "a|b", 3)
	tbl.addf("%s|%d", "plain", 12)
	var buf bytes.Buffer
	if err := tbl.write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want header+rule+2 rows, got %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[2], "a|b") {
		t.Errorf("pipe-bearing cell corrupted: %q", lines[2])
	}
	if !strings.Contains(lines[3], "12") {
		t.Errorf("second row lost its value: %q", lines[3])
	}
}

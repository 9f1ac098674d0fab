package main

import (
	"errors"
	"strings"
	"testing"

	"probquorum/internal/experiments"
)

type closeFails struct{ strings.Builder }

var errClose = errors.New("close failed")

func (*closeFails) Close() error { return errClose }

// TestWriteCSVReportsCloseError: a CSV file whose close fails is an error,
// not a silently truncated result.
func TestWriteCSVReportsCloseError(t *testing.T) {
	tbl := experiments.Table{Cols: []experiments.Col{{Text: "k", CSV: "k"}}}
	tbl.Add(1)
	f := &closeFails{}
	if err := writeCSV(f, tbl); !errors.Is(err, errClose) {
		t.Fatalf("writeCSV = %v, want the close error", err)
	}
	if f.String() != "k\n1\n" {
		t.Fatalf("wrote %q", f.String())
	}
}

package experiments

import (
	"os"
	"slices"
	"strings"
	"testing"
)

func selectedIDs(entries []Entry) []string {
	ids := make([]string, len(entries))
	for i, e := range entries {
		ids[i] = e.ID
	}
	return ids
}

func TestSelect(t *testing.T) {
	all := selectedIDs(Registry)
	tests := []struct {
		name    string
		only    string
		want    []string
		wantErr string
	}{
		{"one ID", "E7", []string{"E7"}, ""},
		{"a list, in registry order", "E10,E1", []string{"E1", "E10"}, ""},
		{"spaces", " E1 , E10 ", []string{"E1", "E10"}, ""},
		{"a duplicate", "E3,E3", []string{"E3"}, ""},
		{"an empty value selects every entry", "", all, ""},
		{"an empty item", "E1,", nil, `unknown experiment ""`},
		{"an unknown ID", "E99", nil, `unknown experiment "E99"; valid IDs: E1, E2, E3, E4, E5, E6, E7, E10, E11, E12, E13, E14, E15, E16`},
		{"IDs are case-sensitive", "e1", nil, `unknown experiment "e1"`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Select(tt.only)
			if tt.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
					t.Fatalf("Select(%q) error = %v, want it to contain %q", tt.only, err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Select(%q): %v", tt.only, err)
			}
			if ids := selectedIDs(got); !slices.Equal(ids, tt.want) {
				t.Fatalf("Select(%q) = %v, want %v", tt.only, ids, tt.want)
			}
		})
	}
}

// TestRegistry pins the registry to the committed results: IDs and CSV
// file names are unique, and E1–E15, the experiments deterministic in
// their seed, name exactly the files in docs/csv.
func TestRegistry(t *testing.T) {
	ids, files := map[string]bool{}, map[string]bool{}
	var deterministic []string
	for _, e := range Registry {
		if ids[e.ID] || files[e.File] {
			t.Fatalf("%s: duplicate ID or file %q", e.ID, e.File)
		}
		ids[e.ID], files[e.File] = true, true
		if e.Title == "" || e.Run == nil {
			t.Fatalf("%s: missing title or driver", e.ID)
		}
		if e.ID != "E16" {
			deterministic = append(deterministic, e.File)
		}
	}
	dir, err := os.ReadDir("../../docs/csv")
	if err != nil {
		t.Fatal(err)
	}
	var committed []string
	for _, f := range dir {
		committed = append(committed, f.Name())
	}
	slices.Sort(deterministic)
	if !slices.Equal(deterministic, committed) {
		t.Fatalf("E1–E15 files %v, docs/csv holds %v", deterministic, committed)
	}
	if len(committed) != 13 {
		t.Fatalf("docs/csv holds %d files, want 13", len(committed))
	}
}

// FuzzSelect guards the -only parser against panics and checks that an
// accepted list selects registry entries in registry order, each once.
func FuzzSelect(f *testing.F) {
	for _, seed := range []string{"E1", "E1,E10", " E1 , E10 ", "E3,E3", "", ",", "E99", "e1", "E1,,E2", "E16,E1,E7"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, only string) {
		got, err := Select(only)
		if err != nil {
			return
		}
		if len(got) == 0 {
			t.Fatalf("Select(%q) selected nothing without error", only)
		}
		pos := -1
		for _, e := range got {
			i := slices.IndexFunc(Registry, func(r Entry) bool { return r.ID == e.ID })
			if i <= pos {
				t.Fatalf("Select(%q) = %v: not in registry order, or repeated", only, selectedIDs(got))
			}
			pos = i
		}
	})
}

// TestEntryMatchesCommittedCSV runs one registry entry, the analytic E7,
// and compares its CSV view with the committed file byte for byte.
func TestEntryMatchesCommittedCSV(t *testing.T) {
	entries, err := Select("E7")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := entries[0].Run(Params{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	if err := rep.CSV.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../docs/csv/" + entries[0].File)
	if err != nil {
		t.Fatal(err)
	}
	if csv.String() != string(want) {
		t.Fatalf("E7's CSV differs from docs/csv/%s", entries[0].File)
	}
}

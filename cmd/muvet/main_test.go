package main

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"mucongest/internal/tools/muvet"
)

// TestRegistry pins the analyzer registry the vet driver runs: exactly
// these six analyzers, in this order, each with a unique name and a
// doc line. Adding or removing an analyzer must update this list.
func TestRegistry(t *testing.T) {
	want := []string{
		"nodeterm",
		"inboxalias",
		"hotalloc",
		"stepblock",
		"stepalias",
		"ctxretain",
	}
	suite := muvet.Suite()
	if len(suite) != len(want) {
		t.Fatalf("Suite() registers %d analyzers, want %d", len(suite), len(want))
	}
	seen := map[string]bool{}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("Suite()[%d].Name = %q, want %q", i, a.Name, want[i])
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %q has no Run", a.Name)
		}
	}
}

// TestVersionLine pins the -V=full answer to the shape the go command
// parses for a devel vet tool: "version devel" followed by a buildID
// field, here the sha256 of the executable, so every rebuilt binary
// keys vet's action cache afresh.
func TestVersionLine(t *testing.T) {
	line, err := versionLine()
	if err != nil {
		t.Fatal(err)
	}
	f := strings.Fields(line)
	if len(f) != 4 || f[0] != "muvet" || f[1] != "version" || f[2] != "devel" {
		t.Fatalf("versionLine() = %q, want \"muvet version devel buildID=<sha256>\"", line)
	}
	id, ok := strings.CutPrefix(f[3], "buildID=")
	if _, err := hex.DecodeString(id); !ok || err != nil || len(id) != 2*sha256.Size {
		t.Fatalf("versionLine() build id field %q, want buildID= and %d hex digits", f[3], 2*sha256.Size)
	}
}

package bqs

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The documents whose citations TestDocsCiteLiveNames checks, relative to
// the module root.
var (
	proseDocs  = []string{"DESIGN.md", ".claude/skills/verify/SKILL.md", "README.md"}
	citingDocs = append([]string{".github/workflows/ci.yml"}, proseDocs...)
)

var (
	// A test, benchmark or fuzz name as go test sees one: the prefix, then
	// no lower-case letter. Docs and CI cite -run/-bench patterns, so a
	// token only has to begin some declared name.
	citedTest   = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*`)
	declaredFn  = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	commentJoin = regexp.MustCompile(`\n[ \t]*//[ \t]?`)
	citedDesign = regexp.MustCompile(`DESIGN\.md(?:,|'s) "([^"]+)"`)
	heading     = regexp.MustCompile(`(?m)^#+ (.+)$`)
	prNumber    = regexp.MustCompile(`PR [0-9]`)
)

// TestDocsCiteLiveNames holds the documents to the tree they describe:
// every test, benchmark or fuzz name DESIGN.md, the verify skill, README.md
// or the CI workflow cites begins a function some _test.go declares; every
// DESIGN.md section a Go file or one of those documents cites by its quoted
// name begins a DESIGN.md heading; and the three prose documents name no PR
// number, because history is CHANGES.md's and git's.
func TestDocsCiteLiveNames(t *testing.T) {
	type cite struct{ from, section string }
	var declared []string
	var cites []cite
	addCites := func(from, text string) {
		for _, m := range citedDesign.FindAllStringSubmatch(text, -1) {
			cites = append(cites, cite{from, strings.Join(strings.Fields(m[1]), " ")})
		}
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range declaredFn.FindAllSubmatch(src, -1) {
				declared = append(declared, string(m[1]))
			}
		}
		// A citation may be split across comment lines.
		addCites(path, commentJoin.ReplaceAllString(string(src), " "))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 || len(cites) == 0 {
		t.Fatalf("found %d test functions and %d DESIGN.md section citations; the scan is broken", len(declared), len(cites))
	}
	sort.Strings(declared)
	begins := func(token string) bool {
		i := sort.SearchStrings(declared, token)
		return i < len(declared) && strings.HasPrefix(declared[i], token)
	}

	for _, doc := range citingDocs {
		text := readDoc(t, doc)
		addCites(doc, text)
		seen := map[string]bool{}
		for _, token := range citedTest.FindAllString(text, -1) {
			if !seen[token] && !begins(token) {
				t.Errorf("%s cites %s, which begins no function of any _test.go", doc, token)
			}
			seen[token] = true
		}
	}

	var headings []string
	for _, m := range heading.FindAllStringSubmatch(readDoc(t, "DESIGN.md"), -1) {
		headings = append(headings, m[1])
	}
	for _, c := range cites {
		found := false
		for _, h := range headings {
			found = found || strings.HasPrefix(h, c.section)
		}
		if !found {
			t.Errorf("%s cites DESIGN.md section %q, which begins no heading of it", c.from, c.section)
		}
	}

	for _, doc := range proseDocs {
		for i, line := range strings.Split(readDoc(t, doc), "\n") {
			if prNumber.MatchString(line) {
				t.Errorf("%s:%d names a PR number: %q", doc, i+1, line)
			}
		}
	}
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

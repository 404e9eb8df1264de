package sinan

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The documents a reader starts from describe the code as it is: every test
// they name is declared, and every DESIGN.md section and paragraph a file
// cites exists.

// testDocs are the documents whose test names must resolve.
var testDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	// testNameRE is a test, benchmark or fuzz target name as prose or a -run
	// pattern writes it; a prefix of a declared name counts.
	testNameRE = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*`)
	// braceRE is shell brace shorthand over such a name, TestA{,B}C.
	braceRE    = regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)\{([^{}]*)\}([A-Za-z0-9_]*)`)
	testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)\(`)

	// citationRE is `DESIGN.md §N` followed by the paragraph titles it names,
	// quoted: `DESIGN.md §7 "Trees", "In place"`.
	citationRE = regexp.MustCompile(`DESIGN\.md,?\s+§(\d+)((?:,?\s+(?:and\s+)?"[^"]+")*)`)
	quotedRE   = regexp.MustCompile(`"([^"]+)"`)
	// lineBreakRE joins a comment or paragraph that wraps a citation.
	lineBreakRE = regexp.MustCompile(`\s*\n\s*(?:(?://|#)\s*)?`)
	sectionRE   = regexp.MustCompile(`(?m)^## (\d+)\. `)
	boldTitleRE = regexp.MustCompile(`^\*\*(.+?)\*\*`)
)

// repoFiles returns the repository's files with one of the extensions,
// skipping version control and testdata.
func repoFiles(t *testing.T, exts ...string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		for _, ext := range exts {
			if strings.HasSuffix(path, ext) {
				files = append(files, path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// citedTestNames returns the test names text mentions, brace shorthand
// written out.
func citedTestNames(text string) []string {
	var names []string
	text = braceRE.ReplaceAllStringFunc(text, func(m string) string {
		p := braceRE.FindStringSubmatch(m)
		for _, alt := range strings.Split(p[2], ",") {
			names = append(names, p[1]+alt+p[3])
		}
		return " "
	})
	return append(names, testNameRE.FindAllString(text, -1)...)
}

func TestDocsNameDeclaredTests(t *testing.T) {
	var declared []string
	for _, f := range repoFiles(t, "_test.go") {
		for _, m := range testFuncRE.FindAllStringSubmatch(readDoc(t, f), -1) {
			declared = append(declared, m[1])
		}
	}
	for _, doc := range testDocs {
		for _, name := range citedTestNames(readDoc(t, doc)) {
			found := false
			for _, d := range declared {
				if strings.HasPrefix(d, name) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s names %s, which begins no declared test, benchmark or fuzz target", doc, name)
			}
		}
	}
}

// designSections maps each numbered section of DESIGN.md to the titles of
// its bold-led paragraphs, without a trailing period or parenthetical:
// "**Wire (`predsvc/wire.go`).**" is titled "Wire".
func designSections(text string) map[int]map[string]bool {
	sections := map[int]map[string]bool{}
	heads := sectionRE.FindAllStringSubmatchIndex(text, -1)
	for i, h := range heads {
		n, _ := strconv.Atoi(text[h[2]:h[3]])
		end := len(text)
		if i+1 < len(heads) {
			end = heads[i+1][0]
		}
		titles := map[string]bool{}
		for _, para := range strings.Split(text[h[1]:end], "\n\n") {
			m := boldTitleRE.FindStringSubmatch(strings.TrimSpace(para))
			if m == nil {
				continue
			}
			title := strings.TrimSuffix(m[1], ".")
			if j := strings.Index(title, " ("); j > 0 {
				title = title[:j]
			}
			titles[title] = true
		}
		sections[n] = titles
	}
	return sections
}

func TestDocsCiteExistingDesignSections(t *testing.T) {
	sections := designSections(readDoc(t, "DESIGN.md"))
	if len(sections) == 0 {
		t.Fatal("DESIGN.md has no numbered sections")
	}
	for _, f := range repoFiles(t, ".go", ".sh", ".md") {
		if f == "CHANGES.md" {
			continue // history: it cites sections as they were
		}
		text := lineBreakRE.ReplaceAllString(readDoc(t, f), " ")
		for _, c := range citationRE.FindAllStringSubmatch(text, -1) {
			n, _ := strconv.Atoi(c[1])
			titles, ok := sections[n]
			if !ok {
				t.Errorf("%s cites DESIGN.md §%d, which does not exist", f, n)
				continue
			}
			for _, q := range quotedRE.FindAllStringSubmatch(c[2], -1) {
				if title := strings.Join(strings.Fields(q[1]), " "); !titles[title] {
					t.Errorf("%s cites DESIGN.md §%d %q, a paragraph title that section does not have", f, n, title)
				}
			}
		}
	}
}

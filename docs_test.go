package sinan

import (
	"fmt"
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

// mdTable is one Markdown table of a document, with the paragraph that
// introduces it.
type mdTable struct {
	line   int    // 1-based line of the header row
	intro  string // the paragraph right above the table
	header []string
	rows   [][]string
}

// mdTables returns the document's Markdown tables in order.
func mdTables(text string) []mdTable {
	var tables []mdTable
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "|") {
			continue
		}
		start := i
		for start > 0 && strings.TrimSpace(lines[start-1]) == "" {
			start--
		}
		begin := start
		for begin > 0 && strings.TrimSpace(lines[begin-1]) != "" {
			begin--
		}
		tab := mdTable{line: i + 1, intro: strings.Join(lines[begin:start], "\n"), header: mdCells(lines[i])}
		for i += 2; i < len(lines) && strings.HasPrefix(lines[i], "|"); i++ {
			tab.rows = append(tab.rows, mdCells(lines[i]))
		}
		tables = append(tables, tab)
	}
	return tables
}

func mdCells(line string) []string {
	cells := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
	for i, c := range cells {
		cells[i] = strings.TrimSpace(c)
	}
	return cells
}

var (
	// goldenRefRE introduces a table drawn from one golden Fig. 11 table.
	goldenRefRE = regexp.MustCompile("golden's\\s+`([^`]+)`\\s+table")
	// oneOffRE introduces a table measured once, outside the golden; what
	// follows the colon says where it came from.
	oneOffRE = regexp.MustCompile(`One-off\s+measurement:\s+\S`)
)

// TestExperimentsTablesFromGolden: every table of EXPERIMENTS.md says in the
// paragraph above it where its numbers come from. A table drawn from a
// golden Fig. 11 table has one row per load and one "mean CPU / P(meet QoS)"
// column per policy, and every cell equals the golden's; the headline table
// is evaluated by TestHeadlineClaims; the rest are marked as one-off
// measurements with their source.
func TestExperimentsTablesFromGolden(t *testing.T) {
	golden := goldenTables(t)
	tables := mdTables(readDoc(t, "EXPERIMENTS.md"))
	if len(tables) == 0 {
		t.Fatal("EXPERIMENTS.md has no tables")
	}
	for _, tab := range tables {
		m := goldenRefRE.FindStringSubmatch(tab.intro)
		switch {
		case m != nil:
			checkFig11Sweep(t, tab, parseFig11(t, goldenTableNamed(t, golden, m[1])))
		case strings.Contains(tab.intro, "TestHeadlineClaims"), oneOffRE.MatchString(tab.intro):
		default:
			t.Errorf("EXPERIMENTS.md:%d: the paragraph above the table names neither a golden table, TestHeadlineClaims, nor a one-off measurement with its source", tab.line)
		}
	}
}

// checkFig11Sweep compares a users × policy table of "mean CPU / P(meet
// QoS)" cells with a golden Fig. 11 table, cell by cell, in the golden's
// number formats.
func checkFig11Sweep(t *testing.T, tab mdTable, f fig11) {
	t.Helper()
	want := map[[2]string]string{} // (users, policy) → cell
	loads := map[string]bool{}
	for policy, points := range f.points {
		for _, p := range points {
			users := strconv.FormatFloat(p.users, 'f', 0, 64)
			want[[2]string{users, policy}] = fmt.Sprintf("%.1f / %.3f", p.cpu, p.meet)
			loads[users] = true
		}
	}
	if len(tab.rows) != len(loads) {
		t.Errorf("EXPERIMENTS.md:%d: %d rows, the golden has %d loads", tab.line, len(tab.rows), len(loads))
	}
	for _, row := range tab.rows {
		for i := 1; i < len(tab.header); i++ {
			policy := strings.Fields(tab.header[i])[0]
			w, ok := want[[2]string{row[0], policy}]
			if !ok {
				t.Errorf("EXPERIMENTS.md:%d: the golden has no %s row at %s users", tab.line, policy, row[0])
			} else if got := strings.Join(strings.Fields(row[i]), " "); got != w {
				t.Errorf("EXPERIMENTS.md:%d: %s at %s users reads %q, the golden %q", tab.line, policy, row[0], got, w)
			}
		}
	}
}

package sinan

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sinan/internal/experiments"
)

// goldenPath is the quick-mode output of every experiment without a
// wall-clock column, the one record of the reproduction's numbers:
// scripts/check.sh compares a fresh run with it byte for byte, and the tests
// here read EXPERIMENTS.md's tables and headline claims against it.
const goldenPath = "internal/experiments/testdata/quick.txt"

// goldenTable is one rendered table of the golden.
type goldenTable struct {
	header []string
	rows   [][]string
	notes  []string
}

// goldenTables parses the golden into its tables, keyed by title. A table's
// columns start where the runs of its dashed rule start.
func goldenTables(t *testing.T) map[string]*goldenTable {
	t.Helper()
	tables := map[string]*goldenTable{}
	var cur *goldenTable
	var head string
	var cols []int
	split := func(line string) []string {
		cells := make([]string, len(cols))
		for i, c := range cols {
			end := len(line)
			if i+1 < len(cols) {
				end = min(cols[i+1], end)
			}
			if c < end {
				cells[i] = strings.TrimSpace(line[c:end])
			}
		}
		return cells
	}
	for _, line := range strings.Split(readDoc(t, goldenPath), "\n") {
		switch {
		case strings.HasPrefix(line, "== ") && strings.HasSuffix(line, " =="):
			cur, head, cols = &goldenTable{}, "", nil
			tables[strings.TrimSuffix(strings.TrimPrefix(line, "== "), " ==")] = cur
		case cur == nil || line == "":
		case strings.HasPrefix(line, "  note: "):
			cur.notes = append(cur.notes, strings.TrimPrefix(line, "  note: "))
		case head == "":
			head = line
		case cols == nil:
			for i := range line {
				if line[i] == '-' && line[i-1] == ' ' {
					cols = append(cols, i)
				}
			}
			cur.header = split(head)
		default:
			cur.rows = append(cur.rows, split(line))
		}
	}
	if len(tables) == 0 {
		t.Fatalf("%s holds no table", goldenPath)
	}
	return tables
}

// goldenTableNamed returns the one golden table whose title begins with
// prefix.
func goldenTableNamed(t *testing.T, tables map[string]*goldenTable, prefix string) *goldenTable {
	t.Helper()
	var found *goldenTable
	for title, tab := range tables {
		if strings.HasPrefix(title, prefix) {
			if found != nil {
				t.Fatalf("more than one golden table is titled %q…", prefix)
			}
			found = tab
		}
	}
	if found == nil {
		t.Fatalf("no golden table is titled %q…", prefix)
	}
	return found
}

// column returns the index of the column headed name.
func column(t *testing.T, header []string, name string) int {
	t.Helper()
	i := slices.Index(header, name)
	if i < 0 {
		t.Fatalf("no column %q among %q", name, header)
	}
	return i
}

// fig11Point is one (load, policy) row of a golden Fig. 11 table.
type fig11Point struct{ users, cpu, meet float64 }

// fig11 is one application's golden Fig. 11 table: its points by policy in
// load order, and its savings note's average and maximum, in percent.
type fig11 struct {
	points           map[string][]fig11Point
	avgSave, maxSave float64
}

var savingNoteRE = regexp.MustCompile(`^Sinan CPU saving vs AutoScaleCons: avg ([\d.]+)%, max ([\d.]+)%$`)

// parseFig11 reads a golden Fig. 11 table.
func parseFig11(t *testing.T, g *goldenTable) fig11 {
	t.Helper()
	users, pol, cpu, meet := column(t, g.header, "users"), column(t, g.header, "policy"), column(t, g.header, "mean CPU"), column(t, g.header, "P(meet QoS)")
	f := fig11{points: map[string][]fig11Point{}}
	for _, row := range g.rows {
		f.points[row[pol]] = append(f.points[row[pol]], fig11Point{
			users: parseNum(t, row[users]), cpu: parseNum(t, row[cpu]), meet: parseNum(t, row[meet]),
		})
	}
	if len(g.notes) != 1 || !savingNoteRE.MatchString(g.notes[0]) {
		t.Fatalf("golden Fig. 11 table: want one savings note, have %q", g.notes)
	}
	m := savingNoteRE.FindStringSubmatch(g.notes[0])
	f.avgSave, f.maxSave = parseNum(t, m[1]), parseNum(t, m[2])
	return f
}

func parseNum(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("golden cell %q is not a number", s)
	}
	return v
}

// headlineClaim evaluates one Measured cell of EXPERIMENTS.md's headline
// table. pattern reads the cell's numbers, so a reworded cell fails until
// its evaluator follows; check evaluates them over the golden's Fig. 11
// tables, so a re-record that breaks the claim fails until the cell is
// reworded.
type headlineClaim struct {
	pattern *regexp.Regexp
	check   func(n []float64, hotel, social fig11) error
}

// headlineClaims are keyed by the row's Quantity cell.
var headlineClaims = map[string]headlineClaim{
	"Sinan meets QoS at every load, both apps": {
		regexp.MustCompile(`^yes on hotel \(1\.000 everywhere\); ≥ ([\d.]+) on social, 1\.000 at (\d+) of (\d+) loads$`),
		func(n []float64, hotel, social fig11) error {
			if err := meetsEverywhere(hotel, "Sinan"); err != nil {
				return err
			}
			lowest, met := 1.0, 0
			for _, p := range social.points["Sinan"] {
				lowest = min(lowest, p.meet)
				if p.meet == 1 {
					met++
				}
			}
			if lowest != n[0] {
				return fmt.Errorf("Sinan's lowest P(meet QoS) on social is %.3f, the cell says %.3f", lowest, n[0])
			}
			if loads := len(social.points["Sinan"]); float64(met) != n[1] || float64(loads) != n[2] {
				return fmt.Errorf("Sinan's P(meet QoS) is 1.000 at %d of %d social loads, the cell says %.0f of %.0f", met, loads, n[1], n[2])
			}
			return nil
		},
	},
	"AutoScaleCons meets QoS at every load": {
		regexp.MustCompile(`^yes \(1\.000 everywhere\)$`),
		func(_ []float64, hotel, social fig11) error {
			if err := meetsEverywhere(hotel, "AutoScaleCons"); err != nil {
				return err
			}
			return meetsEverywhere(social, "AutoScaleCons")
		},
	},
	"Sinan CPU saving vs AutoScaleCons, Hotel": {
		regexp.MustCompile(`^([\d.]+)% avg, ([\d.]+)% max \(divergence D2\)$`),
		func(n []float64, hotel, _ fig11) error { return savingIs(hotel, n) },
	},
	"Sinan CPU saving vs AutoScaleCons, Social": {
		regexp.MustCompile(`^([\d.]+)% avg, ([\d.]+)% max$`),
		func(n []float64, _, social fig11) error { return savingIs(social, n) },
	},
	"PowerChief": {
		regexp.MustCompile(`^violates at every load \(P\(meet\) ≤ ([\d.]+), mostly ≤ ([\d.]+)\) at comparable CPU$`),
		func(n []float64, hotel, social fig11) error {
			var all []fig11Point
			for _, f := range []fig11{hotel, social} {
				// Comparable CPU: over the sweep, within a factor 1.25 of
				// Sinan's either way (the paper's PowerChief took 2.57×).
				if r := sumCPU(f, "PowerChief") / sumCPU(f, "Sinan"); r < 1/1.25 || r > 1.25 {
					return fmt.Errorf("PowerChief uses %.2f× Sinan's CPU over a sweep, not a comparable amount", r)
				}
				all = append(all, f.points["PowerChief"]...)
			}
			low := 0
			for _, p := range all {
				if p.meet == 1 || p.meet > n[0] {
					return fmt.Errorf("PowerChief's P(meet QoS) is %.3f at %.0f users, not a violation below %.2f", p.meet, p.users, n[0])
				}
				if p.meet <= n[1] {
					low++
				}
			}
			if 2*low <= len(all) {
				return fmt.Errorf("PowerChief's P(meet QoS) is ≤ %.2f at %d of %d loads, not mostly", n[1], low, len(all))
			}
			return nil
		},
	},
	"AutoScaleOpt": {
		regexp.MustCompile(`^the reverse on Social: violates at ≤ (\d+) users \(P\(meet\) ([\d.]+)–([\d.]+)\), meets at (\d+)–(\d+) users with (\d+)–(\d+) % of Sinan's CPU \(divergence D4\); meets at steady hotel loads with more CPU than Sinan \(divergence D1\)$`),
		func(n []float64, hotel, social fig11) error {
			lowest, highest := 1.0, 0.0
			for i, p := range social.points["AutoScaleOpt"] {
				switch share := p.cpu / social.points["Sinan"][i].cpu; {
				case p.users <= n[0]:
					if p.meet >= 1 {
						return fmt.Errorf("AutoScaleOpt meets QoS at %.0f social users", p.users)
					}
					lowest, highest = min(lowest, p.meet), max(highest, p.meet)
				case p.users >= n[3] && p.users <= n[4]:
					if p.meet < 1 {
						return fmt.Errorf("AutoScaleOpt's P(meet QoS) is %.3f at %.0f social users", p.meet, p.users)
					}
					if share < n[5]/100 || share > n[6]/100 {
						return fmt.Errorf("AutoScaleOpt uses %.1f %% of Sinan's CPU at %.0f social users", 100*share, p.users)
					}
				default:
					return fmt.Errorf("the cell says nothing of AutoScaleOpt at %.0f social users", p.users)
				}
			}
			if lowest != n[1] || highest != n[2] {
				return fmt.Errorf("AutoScaleOpt's violating P(meet QoS) on social spans %.3f–%.3f, the cell says %.3f–%.3f", lowest, highest, n[1], n[2])
			}
			if err := meetsEverywhere(hotel, "AutoScaleOpt"); err != nil {
				return err
			}
			for i, p := range hotel.points["AutoScaleOpt"] {
				if s := hotel.points["Sinan"][i]; p.cpu <= s.cpu {
					return fmt.Errorf("AutoScaleOpt uses %.1f cores at %.0f hotel users, Sinan %.1f", p.cpu, p.users, s.cpu)
				}
			}
			return nil
		},
	},
}

func meetsEverywhere(f fig11, policy string) error {
	for _, p := range f.points[policy] {
		if p.meet != 1 {
			return fmt.Errorf("%s's P(meet QoS) is %.3f at %.0f users", policy, p.meet, p.users)
		}
	}
	return nil
}

func savingIs(f fig11, n []float64) error {
	if n[0] != f.avgSave || n[1] != f.maxSave || f.avgSave <= 0 {
		return fmt.Errorf("the savings note reads avg %.1f%%, max %.1f%%; the cell says %.1f%%, %.1f%%", f.avgSave, f.maxSave, n[0], n[1])
	}
	return nil
}

func sumCPU(f fig11, policy string) float64 {
	s := 0.0
	for _, p := range f.points[policy] {
		s += p.cpu
	}
	return s
}

// TestHeadlineClaims evaluates every row of EXPERIMENTS.md's headline table
// over the golden's Fig. 11 tables and savings notes. A row without an
// evaluator, and an evaluator without a row, fail too.
func TestHeadlineClaims(t *testing.T) {
	tables := goldenTables(t)
	hotel := parseFig11(t, goldenTableNamed(t, tables, "Fig. 11 — hotel:"))
	social := parseFig11(t, goldenTableNamed(t, tables, "Fig. 11 — social:"))
	var headline *mdTable
	for _, tab := range mdTables(readDoc(t, "EXPERIMENTS.md")) {
		if strings.Contains(tab.intro, "TestHeadlineClaims") {
			headline = &tab
		}
	}
	if headline == nil {
		t.Fatal("EXPERIMENTS.md has no table introduced as evaluated by TestHeadlineClaims")
	}
	quantity, measured := column(t, headline.header, "Quantity"), column(t, headline.header, "Measured (this repo)")
	seen := map[string]bool{}
	for _, row := range headline.rows {
		q := row[quantity]
		seen[q] = true
		claim, ok := headlineClaims[q]
		if !ok {
			t.Errorf("headline row %q has no evaluator in headlineClaims", q)
			continue
		}
		m := claim.pattern.FindStringSubmatch(row[measured])
		if m == nil {
			t.Errorf("headline row %q: cell %q does not read as %s", q, row[measured], claim.pattern)
			continue
		}
		var n []float64
		for _, s := range m[1:] {
			v, _ := strconv.ParseFloat(s, 64)
			n = append(n, v)
		}
		if err := claim.check(n, hotel, social); err != nil {
			t.Errorf("headline row %q: %v", q, err)
		}
	}
	for q := range headlineClaims {
		if !seen[q] {
			t.Errorf("headlineClaims evaluates %q, which is no row of the headline table", q)
		}
	}
}

// goldenCmdRE is the command that writes the golden, as scripts/check.sh
// runs it and EXPERIMENTS.md "Reproducing" prints it.
var goldenCmdRE = regexp.MustCompile(`go run \./cmd/sinan-bench -exp ([a-z0-9,]+) -q -par`)

// wallClockExperiments print wall-clock columns, so the golden leaves them out.
var wallClockExperiments = []string{"table2", "table3", "ablation", "overload"}

// TestGoldenCoversEveryExperiment: check.sh and EXPERIMENTS.md write the
// golden with the same experiment list, and that list is every experiment
// but the wall-clock ones, so a new experiment cannot stay out unnoticed.
func TestGoldenCoversEveryExperiment(t *testing.T) {
	var lists []string
	for _, f := range []string{"scripts/check.sh", "EXPERIMENTS.md"} {
		m := goldenCmdRE.FindAllStringSubmatch(readDoc(t, f), -1)
		if len(m) != 1 {
			t.Fatalf("%s holds %d golden commands, want 1", f, len(m))
		}
		lists = append(lists, m[0][1])
	}
	if lists[0] != lists[1] {
		t.Fatalf("check.sh runs -exp %s, EXPERIMENTS.md -exp %s", lists[0], lists[1])
	}
	covered := append(strings.Split(lists[0], ","), wallClockExperiments...)
	var all []string
	for _, e := range experiments.All() {
		all = append(all, e.ID)
	}
	slices.Sort(covered)
	slices.Sort(all)
	if !slices.Equal(covered, all) {
		t.Errorf("the golden's experiments plus %q are %q, the experiments are %q", wallClockExperiments, covered, all)
	}
}

// proseClaim is one number EXPERIMENTS.md's prose quotes from the golden.
// pattern reads it (and its neighbours) from the document with its
// whitespace collapsed; check compares them with the golden's cells.
type proseClaim struct {
	pattern *regexp.Regexp
	check   func(t *testing.T, n []float64, tables map[string]*goldenTable) error
}

var proseClaims = map[string]proseClaim{
	"Fig. 4: the two models' mean p99 bias": {
		regexp.MustCompile(`measured \+([\d.]+) ms vs \+([\d.]+) ms mean bias, ≈ \+(\d+)% vs \+(\d+)% of the mean truth`),
		func(t *testing.T, n []float64, tables map[string]*goldenTable) error {
			g := goldenTableNamed(t, tables, "Fig. 4 —")
			bias, share := column(t, g.header, "mean p99 bias (ms)"), column(t, g.header, "bias / mean truth")
			for i, prefix := range []string{"multi-task NN", "two-stage CNN"} {
				row := goldenRow(t, g, prefix)
				if b := parseNum(t, row[bias]); b != n[i] {
					return fmt.Errorf("%s's bias is %.1f ms, the prose says +%.1f", prefix, b, n[i])
				}
				if s := parseNum(t, strings.TrimSuffix(row[share], "%")); math.Round(s) != n[2+i] {
					return fmt.Errorf("%s's bias is %.1f%% of the mean truth, the prose says ≈ +%.0f%%", prefix, s, n[2+i])
				}
			}
			return nil
		},
	},
	"Fig. 10: the random-collected model's bias": {
		regexp.MustCompile(`grossly overestimates \(bias ≈ \+(\d+) ms\)`),
		func(t *testing.T, n []float64, tables map[string]*goldenTable) error {
			g := goldenTableNamed(t, tables, "Fig. 10 —")
			b := parseNum(t, goldenRow(t, g, "random")[column(t, g.header, "pred bias (ms)")])
			if math.Round(b/10)*10 != n[0] {
				return fmt.Errorf("the random-collected model's bias is %.1f ms, the prose says ≈ +%.0f", b, n[0])
			}
			return nil
		},
	},
	"D2: Sinan's Hotel savings over the loads": {
		regexp.MustCompile(`on Hotel Reservation \(([\d.]+)–([\d.]+) % per load vs`),
		func(t *testing.T, n []float64, tables map[string]*goldenTable) error {
			hotel := parseFig11(t, goldenTableNamed(t, tables, "Fig. 11 — hotel:"))
			lo, hi := math.Inf(1), math.Inf(-1)
			for i, p := range hotel.points["Sinan"] {
				s := math.Round(1000*(1-p.cpu/hotel.points["AutoScaleCons"][i].cpu)) / 10
				lo, hi = min(lo, s), max(hi, s)
			}
			if lo != n[0] || hi != n[1] {
				return fmt.Errorf("Sinan saves %.1f–%.1f %% of AutoScaleCons's CPU on Hotel, the prose says %.1f–%.1f", lo, hi, n[0], n[1])
			}
			return nil
		},
	},
	"D3: Sinan's Social CPU with the emergency ramp": {
		regexp.MustCompile(`Social ` + "`fig11`" + ` rises from (\d+)–(\d+) to [\d–]+ cores, and its savings against AutoScaleCons fall from ([\d.]+) % to`),
		func(t *testing.T, n []float64, tables map[string]*goldenTable) error {
			social := parseFig11(t, goldenTableNamed(t, tables, "Fig. 11 — social:"))
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, p := range social.points["Sinan"] {
				lo, hi = min(lo, math.Round(p.cpu)), max(hi, math.Round(p.cpu))
			}
			if lo != n[0] || hi != n[1] || social.avgSave != n[2] {
				return fmt.Errorf("Sinan's Social mean CPU spans %.0f–%.0f cores and saves %.1f %%, the prose says %.0f–%.0f and %.1f %%", lo, hi, social.avgSave, n[0], n[1], n[2])
			}
			return nil
		},
	},
}

// goldenRow returns the one row of g whose first cell begins with prefix.
func goldenRow(t *testing.T, g *goldenTable, prefix string) []string {
	t.Helper()
	var found []string
	for _, row := range g.rows {
		if strings.HasPrefix(row[0], prefix) {
			if found != nil {
				t.Fatalf("more than one golden row begins %q", prefix)
			}
			found = row
		}
	}
	if found == nil {
		t.Fatalf("no golden row begins %q", prefix)
	}
	return found
}

// TestProseNumbersFromGolden evaluates the numbers EXPERIMENTS.md's prose
// quotes from the golden, which TestExperimentsTablesFromGolden (tables
// only) does not read: a reworded sentence fails until its pattern follows,
// and a re-record that moves a number fails until the prose does.
func TestProseNumbersFromGolden(t *testing.T) {
	tables := goldenTables(t)
	doc := strings.Join(strings.Fields(readDoc(t, "EXPERIMENTS.md")), " ")
	for name, c := range proseClaims {
		m := c.pattern.FindAllStringSubmatch(doc, -1)
		if len(m) != 1 {
			t.Errorf("%s: EXPERIMENTS.md reads as %s %d times, want once", name, c.pattern, len(m))
			continue
		}
		var n []float64
		for _, s := range m[0][1:] {
			v, _ := strconv.ParseFloat(s, 64)
			n = append(n, v)
		}
		if err := c.check(t, n, tables); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

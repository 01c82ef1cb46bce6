package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"immersionoc/internal/api"
	"immersionoc/internal/sweep"
	"immersionoc/internal/telemetry"
)

// Kind classifies an experiment's output: a formatted table or a
// rendered ASCII plot.
type Kind int

const (
	// KindTable experiments produce a *Table.
	KindTable Kind = iota
	// KindPlot experiments produce a rendered ASCII chart.
	KindPlot
)

// String returns the lowercase kind name used in listings and JSON.
func (k Kind) String() string {
	if k == KindPlot {
		return "plot"
	}
	return "table"
}

// Options carries the run-time knobs shared by every experiment. The
// zero value means "use the experiment's calibrated defaults", so new
// knobs can be added without breaking call sites. The JSON form
// follows the control-plane wire convention (internal/api): snake_case
// names, omitempty, so option sets serialize the same way API
// requests do.
type Options struct {
	// Seed overrides the experiment's default RNG seed when non-zero.
	// Zero keeps the calibrated per-experiment seed, so the zero value
	// reproduces the published tables exactly.
	Seed uint64 `json:"seed,omitempty"`
	// DurationS overrides the simulated duration in seconds, for the
	// experiments that have one, when positive.
	DurationS float64 `json:"duration_s,omitempty"`
	// Workers bounds the intra-experiment sweep parallelism: the
	// harnesses whose grids fan out through sweep.Map run at most this
	// many cells at once, drawing slots from the runner's shared
	// worker budget. ≤ 1 — including the zero value — keeps every
	// sweep serial, reproducing the original loops exactly; the
	// runner threads the resolved octl -j value here.
	Workers int `json:"workers,omitempty"`
	// Tel is the per-run telemetry scope the harness publishes its
	// engine metrics into (the runner keys it by experiment name).
	// Nil — the zero value — disables collection; every telemetry
	// operation through a nil scope is a no-op, so harnesses pass it
	// down unconditionally. Telemetry is process state, not a wire
	// field.
	Tel *telemetry.Scope `json:"-"`
	// Memo is the run-scoped cell memo (sweep.Memo) through which
	// harnesses that simulate the same cell share one computation: the
	// runner creates one per run, so fig16, table11 and policies run
	// each Table XI ramp policy once between them. Nil — a lone
	// harness call — computes every cell. Like Tel it is process
	// state, not a wire field.
	Memo *sweep.Memo `json:"-"`
}

// SeedOr returns the option seed, or def when unset.
func (o Options) SeedOr(def uint64) uint64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return def
}

// DurationOr returns the option duration, or def when unset.
func (o Options) DurationOr(def float64) float64 {
	if o.DurationS > 0 {
		return o.DurationS
	}
	return def
}

// Result is the outcome of one experiment run: the rendered artifact
// plus a structured form that marshals to JSON.
type Result struct {
	// Name and Kind identify the producing experiment.
	Name string
	Kind Kind
	// Tags mirror the experiment descriptor's tags.
	Tags []string
	// Table holds the structured rows for KindTable results.
	Table *Table
	// Plot holds the rendered chart for KindPlot results.
	Plot string
}

// Text renders the result the way octl prints it.
func (r Result) Text() string {
	if r.Kind == KindPlot {
		return r.Plot
	}
	if r.Table == nil {
		return ""
	}
	return r.Table.String()
}

// RowCount reports the number of structured rows (0 for plots).
func (r Result) RowCount() int {
	if r.Table == nil {
		return 0
	}
	return len(r.Table.Rows)
}

// resultJSON is the stable wire form of a Result. Field order is the
// JSON schema documented in the README; the version tag and naming
// follow the control-plane wire convention (internal/api).
type resultJSON struct {
	Vers   string     `json:"version,omitempty"`
	Name   string     `json:"name"`
	Kind   string     `json:"kind"`
	Tags   []string   `json:"tags,omitempty"`
	Title  string     `json:"title,omitempty"`
	Header []string   `json:"header,omitempty"`
	Rows   [][]string `json:"rows,omitempty"`
	Notes  []string   `json:"notes,omitempty"`
	Text   string     `json:"text,omitempty"`
}

// MarshalJSON emits the structured form: table results carry
// title/header/rows/notes, plot results carry the rendered text.
func (r Result) MarshalJSON() ([]byte, error) {
	j := resultJSON{Vers: api.Version, Name: r.Name, Kind: r.Kind.String(), Tags: r.Tags}
	if r.Table != nil {
		j.Title = r.Table.Title
		j.Header = r.Table.Header
		j.Rows = r.Table.Rows
		j.Notes = r.Table.Notes
	}
	if r.Kind == KindPlot {
		j.Text = r.Plot
	}
	return json.Marshal(j)
}

// Experiment is one registered harness. Every table and figure of the
// evaluation — paper artifacts, extensions, ablations and plots —
// registers exactly one descriptor; the registry is the single source
// of truth octl, the runner and the tests enumerate.
type Experiment struct {
	// Name is the octl-facing identifier (e.g. "table5", "fig9").
	Name string
	// Kind distinguishes tables from ASCII plots.
	Kind Kind
	// Seq orders the experiment within All(); `octl all` preserves the
	// paper's presentation order through it.
	Seq int
	// Tags group experiments for selection: "paper", "extension",
	// "ablation", "plot", plus "fast" for the model-driven harnesses
	// that finish in milliseconds and "sim" for the event-driven runs.
	Tags []string
	// Run executes the harness. Implementations honor ctx
	// cancellation at their natural internal boundaries and treat the
	// zero Options as the calibrated defaults.
	Run func(ctx context.Context, o Options) (Result, error)
}

// HasTag reports whether the experiment carries the tag.
func (e Experiment) HasTag(tag string) bool {
	for _, t := range e.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

var registry = struct {
	sync.Mutex
	byName map[string]Experiment
}{byName: map[string]Experiment{}}

// Register adds an experiment to the registry. It panics on empty
// names, duplicate names or a nil Run, so misregistration fails at
// init time rather than mid-evaluation.
func Register(e Experiment) {
	if e.Name == "" {
		panic("experiments: Register with empty name")
	}
	if e.Run == nil {
		panic(fmt.Sprintf("experiments: Register(%q) with nil Run", e.Name))
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byName[e.Name]; dup {
		panic(fmt.Sprintf("experiments: duplicate Register(%q)", e.Name))
	}
	registry.byName[e.Name] = e
}

// All returns every registered experiment in presentation order
// (Seq, then name).
func All() []Experiment {
	registry.Lock()
	defer registry.Unlock()
	out := make([]Experiment, 0, len(registry.byName))
	for _, e := range registry.byName {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seq != out[j].Seq {
			return out[i].Seq < out[j].Seq
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Tables returns the table-kind experiments in presentation order —
// the set `octl all` runs.
func Tables() []Experiment {
	var out []Experiment
	for _, e := range All() {
		if e.Kind == KindTable {
			out = append(out, e)
		}
	}
	return out
}

// WithTag returns the experiments carrying the tag, in presentation
// order.
func WithTag(tag string) []Experiment {
	var out []Experiment
	for _, e := range All() {
		if e.HasTag(tag) {
			out = append(out, e)
		}
	}
	return out
}

// Lookup resolves an experiment by name.
func Lookup(name string) (Experiment, bool) {
	registry.Lock()
	defer registry.Unlock()
	e, ok := registry.byName[name]
	return e, ok
}

// Names returns every registered name in presentation order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.Name
	}
	return out
}

// registerTable registers a table-kind experiment from a harness
// returning (*Table, error); the Result envelope is filled in here so
// harness files only supply the table.
func registerTable(name string, seq int, tags []string, run func(ctx context.Context, o Options) (*Table, error)) {
	Register(Experiment{
		Name: name, Kind: KindTable, Seq: seq, Tags: tags,
		Run: func(ctx context.Context, o Options) (Result, error) {
			t, err := run(ctx, o)
			if err != nil {
				return Result{}, err
			}
			return Result{Name: name, Kind: KindTable, Tags: tags, Table: t}, nil
		},
	})
}

// registerData registers a table-kind experiment as the composition of
// its harness's data call and table renderer: the one shape every
// sweep- or simulation-driven harness takes.
func registerData[R any](name string, seq int, tags []string, data func(ctx context.Context, o Options) (R, error), render func(R) *Table) {
	registerTable(name, seq, tags, func(ctx context.Context, o Options) (*Table, error) {
		r, err := data(ctx, o)
		if err != nil {
			return nil, err
		}
		return render(r), nil
	})
}

// registerPlot registers a plot-kind experiment from a harness
// returning the rendered chart text.
func registerPlot(name string, seq int, tags []string, run func(ctx context.Context, o Options) (string, error)) {
	Register(Experiment{
		Name: name, Kind: KindPlot, Seq: seq, Tags: tags,
		Run: func(ctx context.Context, o Options) (Result, error) {
			s, err := run(ctx, o)
			if err != nil {
				return Result{}, err
			}
			return Result{Name: name, Kind: KindPlot, Tags: tags, Plot: s}, nil
		},
	})
}

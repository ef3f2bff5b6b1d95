// Package simclock provides the simulation time base for IMCF: a fixed
// grid of equally-sized time slots over an evaluation period, season and
// time-window helpers used by meta-rules, and a Clock abstraction that
// lets the daemon's planning schedule run against either wall-clock or
// simulated time.
//
// The paper evaluates EP on an hourly granularity over three-year trace
// periods; Grid generalizes that to any step size.
package simclock

import (
	"errors"
	"fmt"
	"time"
)

// Slot is one cell of a simulation grid: a half-open time interval
// [Start, Start+Duration).
type Slot struct {
	Index    int
	Start    time.Time
	Duration time.Duration
}

// End returns the exclusive end instant of the slot.
func (s Slot) End() time.Time { return s.Start.Add(s.Duration) }

// HourOfDay returns the local hour (0–23) at the start of the slot.
func (s Slot) HourOfDay() int { return s.Start.Hour() }

// Month returns the calendar month at the start of the slot.
func (s Slot) Month() time.Month { return s.Start.Month() }

// Season returns the meteorological season at the start of the slot.
func (s Slot) Season() Season { return SeasonOf(s.Start) }

// DayOfYear returns the ordinal day within the year (1-based).
func (s Slot) DayOfYear() int { return s.Start.YearDay() }

// String formats the slot for logs and error messages.
func (s Slot) String() string {
	return fmt.Sprintf("slot %d [%s, +%s)", s.Index, s.Start.Format(time.RFC3339), s.Duration)
}

// Grid is an immutable sequence of contiguous slots.
type Grid struct {
	start time.Time
	step  time.Duration
	n     int
}

// NewGrid constructs a grid of n slots of the given step starting at start.
func NewGrid(start time.Time, step time.Duration, n int) (*Grid, error) {
	if step <= 0 {
		return nil, errors.New("simclock: step must be positive")
	}
	if n <= 0 {
		return nil, errors.New("simclock: slot count must be positive")
	}
	return &Grid{start: start, step: step, n: n}, nil
}

// GridOver constructs a grid of step-sized slots covering [start, end).
// A partial trailing interval shorter than step is dropped.
func GridOver(start, end time.Time, step time.Duration) (*Grid, error) {
	if !end.After(start) {
		return nil, errors.New("simclock: end must be after start")
	}
	n := int(end.Sub(start) / step)
	if n == 0 {
		return nil, fmt.Errorf("simclock: interval %s shorter than step %s", end.Sub(start), step)
	}
	return NewGrid(start, step, n)
}

// Len returns the number of slots in the grid.
func (g *Grid) Len() int { return g.n }

// Step returns the slot duration.
func (g *Grid) Step() time.Duration { return g.step }

// Start returns the start instant of the first slot.
func (g *Grid) Start() time.Time { return g.start }

// End returns the exclusive end instant of the last slot.
func (g *Grid) End() time.Time { return g.start.Add(time.Duration(g.n) * g.step) }

// Slot returns the i-th slot. It panics if i is out of range, matching
// the behaviour of slice indexing.
func (g *Grid) Slot(i int) Slot {
	if i < 0 || i >= g.n {
		panic(fmt.Sprintf("simclock: slot index %d out of range [0,%d)", i, g.n))
	}
	return Slot{Index: i, Start: g.start.Add(time.Duration(i) * g.step), Duration: g.step}
}

// SlotAt returns the slot containing instant t and true, or a zero Slot
// and false when t falls outside the grid.
func (g *Grid) SlotAt(t time.Time) (Slot, bool) {
	if t.Before(g.start) || !t.Before(g.End()) {
		return Slot{}, false
	}
	i := int(t.Sub(g.start) / g.step)
	return g.Slot(i), true
}

// Each calls fn for every slot in order. It stops early and returns the
// first error fn reports.
func (g *Grid) Each(fn func(Slot) error) error {
	for i := 0; i < g.n; i++ {
		if err := fn(g.Slot(i)); err != nil {
			return err
		}
	}
	return nil
}

// Season is a meteorological season, used by IFTTT-style trigger rules
// ("IF Season Summer THEN Set Temperature 25").
type Season int

// The four seasons, northern-hemisphere meteorological convention.
const (
	Winter Season = iota
	Spring
	Summer
	Autumn
)

// String returns the season name.
func (s Season) String() string {
	switch s {
	case Winter:
		return "Winter"
	case Spring:
		return "Spring"
	case Summer:
		return "Summer"
	case Autumn:
		return "Autumn"
	default:
		return fmt.Sprintf("Season(%d)", int(s))
	}
}

// ParseSeason parses a season name as used in IFTTT configurations.
func ParseSeason(s string) (Season, error) {
	switch s {
	case "Winter", "winter":
		return Winter, nil
	case "Spring", "spring":
		return Spring, nil
	case "Summer", "summer":
		return Summer, nil
	case "Autumn", "autumn", "Fall", "fall":
		return Autumn, nil
	default:
		return 0, fmt.Errorf("simclock: unknown season %q", s)
	}
}

// SeasonOf returns the meteorological season of instant t:
// Dec–Feb winter, Mar–May spring, Jun–Aug summer, Sep–Nov autumn.
func SeasonOf(t time.Time) Season {
	switch t.Month() {
	case time.December, time.January, time.February:
		return Winter
	case time.March, time.April, time.May:
		return Spring
	case time.June, time.July, time.August:
		return Summer
	default:
		return Autumn
	}
}

// TimeWindow is a daily recurring window [StartHour, EndHour) in whole
// hours, as used by the paper's Meta-Rule Table (e.g. "01:00 - 07:00").
// EndHour 24 means end-of-day. Windows that wrap midnight
// (StartHour > EndHour) are supported.
type TimeWindow struct {
	StartHour int
	EndHour   int
}

// Validate checks that the window's bounds are within a day.
func (w TimeWindow) Validate() error {
	if w.StartHour < 0 || w.StartHour > 23 {
		return fmt.Errorf("simclock: start hour %d out of range [0,23]", w.StartHour)
	}
	if w.EndHour < 1 || w.EndHour > 24 {
		return fmt.Errorf("simclock: end hour %d out of range [1,24]", w.EndHour)
	}
	if w.StartHour == w.EndHour {
		return fmt.Errorf("simclock: empty window %s", w)
	}
	return nil
}

// Contains reports whether the given hour of day (0–23) falls inside the
// window.
func (w TimeWindow) Contains(hour int) bool {
	if w.StartHour < w.EndHour { // normal window, possibly ending at 24
		return hour >= w.StartHour && hour < w.EndHour
	}
	// Wrapping window, e.g. 22:00 - 06:00.
	return hour >= w.StartHour || hour < w.EndHour
}

// Hours returns the number of whole hours the window spans per day.
func (w TimeWindow) Hours() int {
	if w.StartHour < w.EndHour {
		return w.EndHour - w.StartHour
	}
	return 24 - w.StartHour + w.EndHour
}

// String formats the window as in the paper's Table II.
func (w TimeWindow) String() string {
	return fmt.Sprintf("%02d:00 - %02d:00", w.StartHour, w.EndHour)
}

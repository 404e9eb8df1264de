package p

// Counter is one named count of a Registry, the shape section 4 looks for.
type Counter struct{ n int64 }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Value reads the count.
func (c *Counter) Value() int64 { return c.n }

// Registry hands out counters by name.
type Registry struct{}

// Counter returns the named counter.
func (*Registry) Counter(name string) *Counter { return &Counter{} }

// Meter registers one instrument per reader rule of section 4.
type Meter struct{ served *Counter }

// NewMeter registers and bumps every instrument.
func NewMeter(r *Registry) *Meter {
	r.Counter("p.unread").Inc()    // nothing reads it
	r.Counter("p.tested").Inc()    // p_test.go names it
	r.Counter("p.foreign").Inc()   // only q's test, which does not import p, names it
	r.Counter("p.commented").Inc() // p_test.go names it in a comment only
	mt := &Meter{served: r.Counter("p.served")}
	mt.served.Inc()
	return mt
}

// Served reads p.served through its handle.
func (mt *Meter) Served() int64 { return mt.served.Value() }

// Package p declares one name per rule of the scan.
package p

// Greeter is an interface of the module.
type Greeter interface{ Greet() string }

// Impl implements Greeter, so its Greet is called through the interface.
type Impl struct{}

func (Impl) Greet() string { return "hi" }

// NotImpl has a method named like Greeter's that does not implement it.
type NotImpl struct{}

func (NotImpl) Greet(times int) string { return "" }

// Unreferenced is named by no file.
func Unreferenced() {}

// TestOnly is named by a test alone.
func TestOnly() {}

// RunOptions has a field the program writes, one only a test writes, and
// one on the allow-list.
type RunOptions struct {
	Set, Unset, Allowed int
}

// Run reads every option.
func Run(o RunOptions) int { return o.Set + o.Unset + o.Allowed }

package main

import (
	"fixture/internal/p"
	"fixture/internal/q"
)

func main() {
	var g p.Greeter = p.Impl{}
	_ = p.NotImpl{}
	println(g.Greet(), p.Run(p.RunOptions{Set: 1}), p.NewMeter(&p.Registry{}).Served(), q.Q())
}

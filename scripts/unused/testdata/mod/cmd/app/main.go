package main

import "fixture/internal/p"

func main() {
	var g p.Greeter = p.Impl{}
	_ = p.NotImpl{}
	println(g.Greet(), p.Run(p.RunOptions{Set: 1}))
}

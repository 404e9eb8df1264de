package main

import "clean/internal/q"

func main() { println(q.Answer()) }

package main

import "gate/internal/lib"

func main() {
	var s lib.Speaker = lib.Impl{}
	_ = s
	_ = lib.Used()
}

package main

import "gate/internal/libtest"

func main() { libtest.Helper() }

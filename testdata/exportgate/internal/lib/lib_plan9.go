package lib

func other() int { return twin() }

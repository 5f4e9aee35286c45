let unreachable = max_int

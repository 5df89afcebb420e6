let step x = x + 1

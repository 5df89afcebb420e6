let used x = x + 2
let dead x = x - 2

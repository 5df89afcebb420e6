let dead x = x
let via_alias x = x + 1
let oracle x = x * 2
let oracle_bare x = x * 3

let dead ?(depth = 1) () = depth
let partly ?(depth = 1) ?(width = 2) () = depth + width
let supplied ?(depth = 1) () = depth
let forwarded ?(depth = 1) () = depth
let aliased ?(depth = 1) () = depth
let passed ?(depth = 1) () = depth
let allowed ?(depth = 1) () = depth

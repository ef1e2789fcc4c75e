type level = Debug | Info | Warn | Error

let level_label = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

type state = { min_level : level; write : Writer.t }
type t = state option

let null : t = None
let make ?(min_level = Info) write : t = Some { min_level; write }

let msg t level text =
  match t with
  | None -> ()
  | Some st ->
      if level_rank level >= level_rank st.min_level then
        st.write (Printf.sprintf "[%s] %s" (level_label level) text)

let logf t level fmt = Printf.ksprintf (fun s -> msg t level s) fmt
let debugf t fmt = logf t Debug fmt
let infof t fmt = logf t Info fmt

type application = { app_name : string; mu : float; sigma : float }

let vbmqa = { app_name = "VBMQA"; mu = 7.1128; sigma = 0.2039 }

let fmriqa =
  (* The published figure reports the fit only graphically; a LogNormal
     with mean ~ 2100 s and coefficient of variation ~ 0.6 matches the
     plotted scale. *)
  let mu, sigma =
    Distributions.Fitting.lognormal_of_moments ~mean:2100.0 ~std:1260.0
  in
  { app_name = "fMRIQA"; mu; sigma }

let distribution app = Distributions.Lognormal.make ~mu:app.mu ~sigma:app.sigma

let distribution_hours app =
  (* If ln X ~ N(mu, sigma^2) in seconds then ln (X/3600) ~
     N(mu - ln 3600, sigma^2). *)
  Distributions.Lognormal.make ~mu:(app.mu -. log 3600.0) ~sigma:app.sigma

let generate ?(runs = 5000) app rng =
  if runs <= 0 then invalid_arg "Traces.generate: runs must be positive";
  let d = distribution app in
  Distributions.Dist.samples d rng runs

let save_csv path trace =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "runtime_seconds\n";
      Array.iter (fun t -> Printf.fprintf oc "%.6f\n" t) trace)

let load_csv path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let out = ref [] in
      (try
         while true do
           let line = String.trim (input_line ic) in
           if line <> "" && line <> "runtime_seconds" then
             match float_of_string_opt line with
             | Some v -> out := v :: !out
             | None ->
                 failwith
                   (Printf.sprintf "Traces.load_csv: malformed line %S in %s"
                      line path)
         done
       with End_of_file -> ());
      Array.of_list (List.rev !out))


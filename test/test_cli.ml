(* The CLI rejects degenerate numeric options at parse time: cmdliner
   reports them as usage errors (exit 124) naming the option, instead
   of an uncaught exception (exit 125) or a silently empty run. *)

let exe = Filename.concat Filename.parent_dir_name "bin/rtlf.exe"

(* Runs [rtlf args] and returns (exit code, stderr). *)
let rtlf args =
  let err = Filename.temp_file "rtlf_cli" ".err" in
  let code =
    Sys.command
      (Filename.quote_command exe args ~stdout:Filename.null ~stderr:err)
  in
  let ic = open_in_bin err in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove err;
  (code, text)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let rejects argv ~option ~msg () =
  let code, err = rtlf argv in
  Alcotest.(check int) "usage exit code" 124 code;
  Alcotest.(check bool)
    (Printf.sprintf "stderr names %s: %S" option err)
    true
    (contains ~sub:(Printf.sprintf "option '%s'" option) err
    && contains ~sub:msg err)

let accepts_small_run () =
  let code, err = rtlf [ "sim"; "--fast"; "--tasks"; "2"; "--load"; "0.5" ] in
  Alcotest.(check int) (Printf.sprintf "exit code (stderr %S)" err) 0 code

let case name args ~option ~msg =
  Alcotest.test_case name `Quick
    (rejects ("sim" :: "--fast" :: args) ~option ~msg)

let () =
  Alcotest.run "cli"
    [
      ( "rejects",
        [
          case "--tasks 0" [ "--tasks"; "0" ] ~option:"--tasks"
            ~msg:"task count must be >= 1";
          case "--exec-us 0" [ "--exec-us"; "0" ] ~option:"--exec-us"
            ~msg:"execution time must be >= 1";
          case "--load nan" [ "--load"; "nan" ] ~option:"--load"
            ~msg:"load must be a finite number > 0";
          case "--load inf" [ "--load"; "inf" ] ~option:"--load"
            ~msg:"load must be a finite number > 0";
          case "--load 0" [ "--load"; "0" ] ~option:"--load"
            ~msg:"load must be a finite number > 0";
          case "--load=-1" [ "--load=-1" ] ~option:"--load"
            ~msg:"load must be a finite number > 0";
          Alcotest.test_case "run smp --cores 0" `Quick
            (rejects
               [ "run"; "smp"; "--fast"; "--cores"; "1"; "--cores"; "0" ]
               ~option:"--cores" ~msg:"core count must be >= 1");
        ] );
      ( "accepts",
        [ Alcotest.test_case "small valid run" `Quick accepts_small_run ] );
    ]

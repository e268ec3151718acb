(* Structural fingerprint of a labelled index: the bytes of its columnar
   snapshot — labels, links, document table and path dictionary.  Two
   indexes with equal fingerprints are label- and link-identical. *)

let of_labeled labeled =
  let store = Xstorage.Store.memory () in
  Xindex.Labeled.add_to_store labeled store;
  let file = Filename.temp_file "xseq_fingerprint" ".col" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Xstorage.Store.write store file;
      In_channel.with_open_bin file In_channel.input_all)

let of_index index = of_labeled (Xseq.labeled index)
